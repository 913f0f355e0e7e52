// rpqres — engine/engine_stats: per-instance and aggregate engine metrics.
//
// Every engine run records what happened (classification outcome, caches,
// wall time) so benchmark harnesses and operators can see where time goes
// without instrumenting solvers themselves. What the solver did (its
// algorithm, network size, pruning, search nodes) is in the response's
// ResilienceResult, the one record of a solve.

#ifndef RPQRES_ENGINE_ENGINE_STATS_H_
#define RPQRES_ENGINE_ENGINE_STATS_H_

#include <cstdint>
#include <map>
#include <string>

namespace rpqres {

/// What the engine alone knows about one (query, database) instance.
struct InstanceStats {
  /// Classification column for IF(L) ("PTIME", "NP-hard", ...).
  std::string complexity;
  /// The paper result that justified the classification.
  std::string rule;
  /// False iff this instance paid a fresh compilation; true for plan-cache
  /// hits and for requests that carry a caller-managed precompiled query
  /// (ResilienceRequest::query), which bypass the cache.
  bool cache_hit = false;
  /// True iff the answer came from the version-keyed ResultCache (no
  /// solver ran; the response's result, algorithm included, is the one
  /// the run that populated the entry produced).
  bool result_cache_hit = false;
  /// Compile wall time attributed to this instance (0 on a cache hit).
  double compile_micros = 0;
  /// Solve wall time (plan execution only).
  double solve_micros = 0;
};

/// Aggregate counters for one engine (or, from serve::Router, for a
/// fleet), cumulative since construction or the last ResetStats.
///
/// A view, not a store: ResilienceEngine counts every event once, in its
/// metric families, and EngineStatsFromMetrics computes this struct from
/// a snapshot of them. Each field below names the sample it reads.
struct EngineStats {
  /// Sum of the four rpqres_requests_total{status} samples.
  int64_t instances_run = 0;
  /// rpqres_engine_events_total{event="batch"}.
  int64_t batches_run = 0;
  /// Full compilations performed (== plan-cache misses whose compile
  /// succeeded); rpqres_engine_events_total{event="compilation"}.
  int64_t compilations = 0;
  /// rpqres_plan_cache_events_total{event="hit"|"miss"|"eviction"}.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  /// Instances that ended in a non-OK status. NOTE: this is a roll-up —
  /// `deadline_exceeded` and `cancelled` below are counted here too
  /// (kept for compatibility). The metrics exporter reports the four
  /// DISJOINT statuses instead (ok / error / deadline_exceeded /
  /// cancelled, summing to instances_run), so shed-rate math needs no
  /// double-count correction; generic errors alone are
  /// `errors - deadline_exceeded - cancelled`. Sum of the three non-ok
  /// rpqres_requests_total samples.
  int64_t errors = 0;
  /// Requests accepted through the async Submit/SubmitBatch surface;
  /// rpqres_engine_events_total{event="submit"}.
  int64_t submits = 0;
  /// Instances that stopped at their wall-clock deadline (counted in
  /// `errors` too); rpqres_requests_total{status="deadline_exceeded"}.
  int64_t deadline_exceeded = 0;
  /// Instances stopped by cooperative cancellation (counted in `errors`
  /// too); rpqres_requests_total{status="cancelled"}.
  int64_t cancelled = 0;
  /// EvaluateDifferential pairs judged, and how many disagreed (either
  /// value divergence or an invalid witness on either side);
  /// rpqres_engine_events_total{event="differential"|
  /// "differential_mismatch"}.
  int64_t differentials_run = 0;
  int64_t differential_mismatches = 0;
  /// Version-keyed ResultCache counters (0 when the cache is disabled);
  /// rpqres_result_cache_events_total{event}.
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
  int64_t result_cache_evictions = 0;
  int64_t result_cache_invalidations = 0;
  /// Instance counts by solver algorithm string (nonzero samples of
  /// rpqres_requests_by_algorithm_total).
  std::map<std::string, int64_t> instances_by_algorithm;
};

}  // namespace rpqres

#endif  // RPQRES_ENGINE_ENGINE_STATS_H_
