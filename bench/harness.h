// rpqres — bench/harness: the unified engine benchmark runner.
//
// A scenario = one query replayed over a family of generated databases
// through the ResilienceEngine batch API. The harness runs every scenario,
// aggregates per-instance wall times into p50/p95/throughput, and emits a
// machine-readable JSON report (BENCH_engine.json) — the trajectory format
// all later scaling PRs append to, replacing per-bench ad-hoc printing.
//
// No external dependencies: JSON is written by a minimal serializer here
// (the report is flat: objects, arrays, strings, numbers).

#ifndef RPQRES_BENCH_HARNESS_H_
#define RPQRES_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/graph_db.h"
#include "obs/metrics.h"

namespace rpqres {
namespace bench {

/// One benchmark scenario: `regex` under `semantics` against every
/// database in `databases`, `repetitions` times over. Databases are
/// registered once in the harness's DbRegistry and every instance reuses
/// the handle + per-label index; one untimed warm-up batch precedes the
/// timed batch, so the numbers describe steady-state serving.
struct Scenario {
  std::string name;         ///< stable id, e.g. "local_ax_star_b"
  std::string description;  ///< one line for the report
  std::string regex;
  Semantics semantics = Semantics::kBag;
  std::vector<GraphDb> databases;
  int repetitions = 3;
};

/// Aggregated measurements for one scenario.
struct ScenarioReport {
  std::string name;
  std::string description;
  std::string regex;
  std::string semantics;   ///< "set" | "bag"
  std::string complexity;  ///< classification column for IF(L)
  std::string rule;        ///< classification rule
  std::string algorithm;   ///< solver observed on the instances
  int instances = 0;
  int errors = 0;
  double compile_cold_micros = 0;  ///< first compilation of the regex
  double solve_p50_micros = 0;
  double solve_p95_micros = 0;
  double solve_p99_micros = 0;
  double solve_max_micros = 0;
  double solve_mean_micros = 0;
  /// Per-scenario solve-latency distribution in the obs fixed log-scale
  /// buckets — the BENCH trajectory carries the full shape, not just the
  /// percentile samples above.
  obs::LatencyHistogram::Snapshot solve_histogram;
  double total_wall_micros = 0;  ///< batch wall time (all instances)
  double throughput_qps = 0;     ///< instances / total wall
  int64_t network_vertices_max = 0;
  int64_t network_edges_max = 0;
  /// Product-pruning effect (local flow): max dead vertices/edges one
  /// instance skipped versus the full |V|·|S| construction.
  int64_t pruned_vertices_max = 0;
  int64_t pruned_edges_max = 0;
  uint64_t search_nodes_max = 0;
  /// Version-keyed ResultCache traffic during the timed batch (0 unless
  /// the harness engine enables the cache).
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
  /// Sum of finite resilience values — a determinism checksum comparable
  /// across runs and machines.
  int64_t resilience_checksum = 0;
};

/// Linear-interpolation percentile (p in [0, 100]) of unsorted values;
/// 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Minimal JSON string escaping (quotes, backslash, control chars).
std::string JsonEscape(const std::string& s);

/// Runs scenarios through one engine (shared plan cache, shared pool).
class Harness {
 public:
  explicit Harness(EngineOptions options = {});

  void AddScenario(Scenario scenario);

  /// Runs all scenarios in order; each scenario's instances go through
  /// ResilienceEngine::EvaluateBatch.
  std::vector<ScenarioReport> RunAll();

  /// The full JSON document for a set of reports (includes engine
  /// configuration, aggregate engine stats, and the engine's own metrics
  /// export — counters, latency histograms, gauges — under "metrics").
  std::string ToJson(const std::vector<ScenarioReport>& reports) const;

  /// Writes ToJson(reports) to `path`.
  Status WriteJson(const std::string& path,
                   const std::vector<ScenarioReport>& reports) const;

  ResilienceEngine& engine() { return engine_; }
  DbRegistry& registry() { return registry_; }

 private:
  ScenarioReport RunScenario(const Scenario& scenario);

  /// Engine counters accumulated over the *timed* batches only — the
  /// untimed warm-up batches would otherwise double every per-instance
  /// total in the report and break BENCH trajectory comparability.
  struct SteadyStateStats {
    int64_t instances_run = 0;
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t errors = 0;
    /// Summed over the timed outcomes' InstanceStats.
    int64_t flow_vertices_pruned = 0;
    int64_t flow_edges_pruned = 0;
  };

  ResilienceEngine engine_;
  DbRegistry registry_;
  std::vector<Scenario> scenarios_;
  SteadyStateStats steady_;
};

}  // namespace bench
}  // namespace rpqres

#endif  // RPQRES_BENCH_HARNESS_H_
