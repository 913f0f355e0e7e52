#include "bench/harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

namespace rpqres {
namespace bench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes (ε etc.) pass through verbatim
        }
    }
  }
  return out;
}

namespace {

// JSON numbers must be finite; clamp NaN/inf to 0 defensively.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << v;
  return os.str();
}

// Sparse non-cumulative bucket list mirroring obs::ToJson's histogram
// series shape: [{"le": bound-or-"+Inf", "count": n}, ...].
std::string HistogramJson(const obs::LatencyHistogram::Snapshot& h,
                          const std::string& indent) {
  const auto& bounds = obs::LatencyHistogram::BucketBoundsMicros();
  std::ostringstream os;
  os << "{\n";
  os << indent << "  \"count\": " << h.total_count << ",\n";
  os << indent << "  \"sum_micros\": " << JsonNumber(h.sum_micros) << ",\n";
  os << indent << "  \"p50_micros\": " << JsonNumber(h.Quantile(0.50))
     << ",\n";
  os << indent << "  \"p95_micros\": " << JsonNumber(h.Quantile(0.95))
     << ",\n";
  os << indent << "  \"p99_micros\": " << JsonNumber(h.Quantile(0.99))
     << ",\n";
  os << indent << "  \"buckets\": [";
  bool first = true;
  for (int i = 0; i < obs::LatencyHistogram::kTotalBuckets; ++i) {
    if (h.counts[i] == 0) continue;
    os << (first ? "" : ", ");
    first = false;
    os << "{\"le\": ";
    if (i < obs::LatencyHistogram::kFiniteBuckets) {
      os << JsonNumber(bounds[i]);
    } else {
      os << "\"+Inf\"";
    }
    os << ", \"count\": " << h.counts[i] << "}";
  }
  os << "]\n" << indent << "}";
  return os.str();
}

}  // namespace

Harness::Harness(EngineOptions options) : engine_(options) {}

void Harness::AddScenario(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

std::vector<ScenarioReport> Harness::RunAll() {
  std::vector<ScenarioReport> reports;
  reports.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) {
    reports.push_back(RunScenario(scenario));
  }
  return reports;
}

ScenarioReport Harness::RunScenario(const Scenario& scenario) {
  ScenarioReport report;
  report.name = scenario.name;
  report.description = scenario.description;
  report.regex = scenario.regex;
  report.semantics = scenario.semantics == Semantics::kSet ? "set" : "bag";

  const int repetitions = std::max(scenario.repetitions, 1);
  // Register each database once; every repetition reuses the handle and
  // its precomputed per-label index.
  std::vector<DbHandle> handles;
  handles.reserve(scenario.databases.size());
  for (const GraphDb& db : scenario.databases) {
    handles.push_back(registry_.Register(db, scenario.name));
  }
  std::vector<ResilienceRequest> requests;
  requests.reserve(handles.size() * static_cast<size_t>(repetitions));
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const DbHandle& handle : handles) {
      ResilienceRequest request;
      request.regex = scenario.regex;
      request.db = handle;
      request.semantics = scenario.semantics;
      requests.push_back(std::move(request));
    }
  }
  // One untimed warm-up batch: the scenarios measure steady-state
  // serving (plan cached, per-thread solver scratch grown), not
  // first-request page faults and buffer growth. The warm-up is also
  // where a cold compile (if any) lands, so cold-compile attribution is
  // read from it.
  for (const ResilienceResponse& outcome : engine_.EvaluateBatch(requests)) {
    if (outcome.status.ok() && !outcome.stats.cache_hit) {
      report.compile_cold_micros = outcome.stats.compile_micros;
    }
  }
  EngineStats before = engine_.stats();
  auto start = std::chrono::steady_clock::now();
  std::vector<ResilienceResponse> outcomes = engine_.EvaluateBatch(requests);
  report.total_wall_micros = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  EngineStats after = engine_.stats();
  steady_.instances_run += after.instances_run - before.instances_run;
  steady_.cache_hits += after.cache_hits - before.cache_hits;
  steady_.cache_misses += after.cache_misses - before.cache_misses;
  steady_.errors += after.errors - before.errors;
  report.result_cache_hits =
      after.result_cache_hits - before.result_cache_hits;
  report.result_cache_misses =
      after.result_cache_misses - before.result_cache_misses;
  for (const DbHandle& handle : handles) registry_.Unregister(handle.id());

  std::vector<double> solve_micros;
  solve_micros.reserve(outcomes.size());
  for (const ResilienceResponse& outcome : outcomes) {
    ++report.instances;
    steady_.flow_vertices_pruned += outcome.stats.product_vertices_pruned;
    steady_.flow_edges_pruned += outcome.stats.product_edges_pruned;
    if (!outcome.status.ok()) {
      ++report.errors;
      continue;
    }
    solve_micros.push_back(outcome.stats.solve_micros);
    if (report.algorithm.empty()) report.algorithm = outcome.stats.algorithm;
    report.network_vertices_max = std::max(report.network_vertices_max,
                                           outcome.stats.network_vertices);
    report.network_edges_max =
        std::max(report.network_edges_max, outcome.stats.network_edges);
    report.pruned_vertices_max = std::max(
        report.pruned_vertices_max, outcome.stats.product_vertices_pruned);
    report.pruned_edges_max =
        std::max(report.pruned_edges_max, outcome.stats.product_edges_pruned);
    report.search_nodes_max =
        std::max(report.search_nodes_max, outcome.stats.search_nodes);
    if (!outcome.result.infinite) {
      report.resilience_checksum += outcome.result.value;
    }
  }
  // Classification from any successful outcome (the timed batch is all
  // cache hits after the warm-up, so every instance carries it).
  for (const ResilienceResponse& outcome : outcomes) {
    if (outcome.status.ok()) {
      report.complexity = outcome.stats.complexity;
      report.rule = outcome.stats.rule;
      break;
    }
  }

  report.solve_p50_micros = Percentile(solve_micros, 50);
  report.solve_p95_micros = Percentile(solve_micros, 95);
  report.solve_p99_micros = Percentile(solve_micros, 99);
  report.solve_max_micros = Percentile(solve_micros, 100);
  obs::LatencyHistogram histogram;
  for (double micros : solve_micros) histogram.Record(micros);
  report.solve_histogram = histogram.TakeSnapshot();
  if (!solve_micros.empty()) {
    double sum = 0;
    for (double v : solve_micros) sum += v;
    report.solve_mean_micros = sum / static_cast<double>(solve_micros.size());
  }
  if (report.total_wall_micros > 0) {
    report.throughput_qps = static_cast<double>(report.instances) /
                            (report.total_wall_micros / 1e6);
  }
  return report;
}

std::string Harness::ToJson(
    const std::vector<ScenarioReport>& reports) const {
  EngineStats stats = engine_.stats();
  PlanCacheView cache = engine_.plan_cache_view();
  std::ostringstream os;
  os << "{\n";
  os << "  \"benchmark\": \"engine\",\n";
  // Per-instance engine counters (instances_run, cache hits/misses,
  // pruning, errors) cover the timed batches only; warm-up batches are
  // excluded so totals stay comparable across BENCH trajectory points.
  // "compilations" stays engine-wide: a compile is a one-time cost that
  // lands in the warm-up by design.
  os << "  \"engine\": {\n";
  os << "    \"plan_cache_capacity\": " << engine_.options().plan_cache_capacity
     << ",\n";
  os << "    \"plan_cache_size\": " << cache.size << ",\n";
  os << "    \"num_threads\": "
     << (engine_.options().num_threads > 0 ? engine_.options().num_threads
                                           : ThreadPool::DefaultNumThreads())
     << ",\n";
  os << "    \"instances_run\": " << steady_.instances_run << ",\n";
  os << "    \"compilations\": " << stats.compilations << ",\n";
  os << "    \"cache_hits\": " << steady_.cache_hits << ",\n";
  os << "    \"cache_misses\": " << steady_.cache_misses << ",\n";
  os << "    \"flow_vertices_pruned\": " << steady_.flow_vertices_pruned
     << ",\n";
  os << "    \"flow_edges_pruned\": " << steady_.flow_edges_pruned << ",\n";
  os << "    \"result_cache_capacity\": "
     << engine_.options().result_cache_capacity << ",\n";
  os << "    \"result_cache_hits\": " << stats.result_cache_hits << ",\n";
  os << "    \"result_cache_misses\": " << stats.result_cache_misses << ",\n";
  os << "    \"errors\": " << steady_.errors << "\n";
  os << "  },\n";
  // The engine's own metrics export (counters, latency histograms with
  // p50/p95/p99, cache/registry gauges) — the same document
  // ExportMetrics(kJson) serves; spliced verbatim, it is a JSON object.
  std::string metrics =
      engine_.ExportMetrics(MetricsFormat::kJson, &registry_);
  while (!metrics.empty() &&
         (metrics.back() == '\n' || metrics.back() == ' ')) {
    metrics.pop_back();
  }
  os << "  \"metrics\": " << metrics << ",\n";
  os << "  \"scenarios\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const ScenarioReport& r = reports[i];
    os << "    {\n";
    os << "      \"name\": \"" << JsonEscape(r.name) << "\",\n";
    os << "      \"description\": \"" << JsonEscape(r.description) << "\",\n";
    os << "      \"regex\": \"" << JsonEscape(r.regex) << "\",\n";
    os << "      \"semantics\": \"" << r.semantics << "\",\n";
    os << "      \"complexity\": \"" << JsonEscape(r.complexity) << "\",\n";
    os << "      \"rule\": \"" << JsonEscape(r.rule) << "\",\n";
    os << "      \"algorithm\": \"" << JsonEscape(r.algorithm) << "\",\n";
    os << "      \"instances\": " << r.instances << ",\n";
    os << "      \"errors\": " << r.errors << ",\n";
    os << "      \"compile_cold_micros\": "
       << JsonNumber(r.compile_cold_micros) << ",\n";
    os << "      \"solve_p50_micros\": " << JsonNumber(r.solve_p50_micros)
       << ",\n";
    os << "      \"solve_p95_micros\": " << JsonNumber(r.solve_p95_micros)
       << ",\n";
    os << "      \"solve_p99_micros\": " << JsonNumber(r.solve_p99_micros)
       << ",\n";
    os << "      \"solve_max_micros\": " << JsonNumber(r.solve_max_micros)
       << ",\n";
    os << "      \"latency_histogram\": "
       << HistogramJson(r.solve_histogram, "      ") << ",\n";
    os << "      \"solve_mean_micros\": " << JsonNumber(r.solve_mean_micros)
       << ",\n";
    os << "      \"total_wall_micros\": " << JsonNumber(r.total_wall_micros)
       << ",\n";
    os << "      \"throughput_qps\": " << JsonNumber(r.throughput_qps)
       << ",\n";
    os << "      \"network_vertices_max\": " << r.network_vertices_max
       << ",\n";
    os << "      \"network_edges_max\": " << r.network_edges_max << ",\n";
    os << "      \"pruned_vertices_max\": " << r.pruned_vertices_max << ",\n";
    os << "      \"pruned_edges_max\": " << r.pruned_edges_max << ",\n";
    os << "      \"search_nodes_max\": " << r.search_nodes_max << ",\n";
    os << "      \"result_cache_hits\": " << r.result_cache_hits << ",\n";
    os << "      \"result_cache_misses\": " << r.result_cache_misses << ",\n";
    os << "      \"resilience_checksum\": " << r.resilience_checksum << "\n";
    os << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

Status Harness::WriteJson(const std::string& path,
                          const std::vector<ScenarioReport>& reports) const {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out << ToJson(reports);
  out.close();
  if (!out) {
    return Status::Internal("failed writing " + path);
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace rpqres
