// rpqres — obs/export: render a MetricsSnapshot for machines.
//
// Two formats:
//  * Prometheus text exposition (format 0.0.4): HELP/TYPE headers,
//    cumulative `le` histogram buckets ending in +Inf, _sum and _count
//    series. Consumable by any Prometheus-compatible scraper.
//  * JSON: one object mirroring the snapshot structure, with derived
//    p50/p95/p99 per histogram series so downstream tooling needn't
//    re-implement quantile math.

#ifndef RPQRES_OBS_EXPORT_H_
#define RPQRES_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace rpqres::obs {

std::string ToPrometheusText(const MetricsSnapshot& snapshot);
std::string ToJson(const MetricsSnapshot& snapshot);

/// `text` as the body of a JSON string: quotes, backslashes and control
/// characters escaped.
std::string JsonEscape(std::string_view text);

}  // namespace rpqres::obs

#endif  // RPQRES_OBS_EXPORT_H_
