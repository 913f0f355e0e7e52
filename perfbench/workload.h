// perfbench/workload: the interface the three workloads implement and the
// driver that turns one of them into an untraced (end-to-end) or traced
// (per-layer) run.

#ifndef RPQRES_PERFBENCH_WORKLOAD_H_
#define RPQRES_PERFBENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "common.h"
#include "engine/compiled_query.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"

namespace perfbench {

/// Outcome of checking a run's answers against references computed
/// outside the serving path.
struct Verification {
  std::vector<int64_t> expected;  ///< reference answer per pair
  int64_t checksum = 0;           ///< pure function of the seed
  int64_t bad_witnesses = 0;      ///< traced runs: failed witness checks
  std::vector<std::string> problems;
};

/// Sum of reference answers; +infinity counts as 1e6.
int64_t ChecksumOf(const std::vector<int64_t>& expected);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates inputs, builds and fills the fleet, warms it. Returns the
  /// seconds it took.
  virtual double Setup() = 0;
  /// Closed-loop reads (and, where the workload has them, concurrent
  /// commits) for `seconds`.
  virtual RunTiming Run(double seconds, bool traced, ClientStats* reads,
                        CommitStats* commits) = 0;
  /// References for every pair; with `witnesses`, also checks each
  /// distinct pair's contingency set with VerifyResilienceResult.
  virtual Verification Verify(const ClientStats& reads, bool witnesses) = 0;
  /// Per-lookup time of a plan-cache probe shaped like this workload's
  /// (hits for warm plans, misses for cold regexes).
  virtual double PlanCacheLookupMicros() = 0;
  /// Destroys the router and fleet; returns the storage directory they
  /// persisted to, or "" when the fleet lives in memory.
  virtual std::string Release() = 0;

  /// Whether the end-to-end times are scaled to the reference speed
  /// (SpeedReference). Only a workload whose one client sleeps while the
  /// program works can time the kernel without competing with the program
  /// or being slowed by it; Run() then polls the kernel into its windows.
  virtual bool speed_scaled() const = 0;
  virtual size_t pairs() const = 0;
  virtual rpqres::serve::Router& router() = 0;
  virtual rpqres::serve::ShardedRegistry& shards() = 0;
};

std::unique_ptr<Workload> MakeSolveMatrix(const Args& args);
std::unique_ptr<Workload> MakeServeHot(const Args& args, int instance);
std::unique_ptr<Workload> MakeColdRegex(const Args& args);

/// Everything the per-layer block reads from a traced replay.
struct Replay {
  ClientStats reads;
  CommitStats commits;
  double untraced_reads = 0;
  double untraced_seconds = 0;
  double traced_reads = 0;
  double traced_seconds = 0;
  int64_t submitted = 0;
  int64_t sheds = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
  int64_t storage_retries = 0;
  double snapshot_us = 0;
  double plan_cache_lookup_us = 0;
  std::string recover_dir;
};

/// Per-lookup time of a benchmark-owned PlanCache holding `resident`,
/// probed with `probes` under `semantics`; layers.cc.
double PlanCacheProbeMicros(
    const std::vector<std::shared_ptr<const rpqres::CompiledQuery>>& resident,
    const std::vector<std::string>& probes, rpqres::Semantics semantics);

/// The result-cache hit path on a benchmark-owned engine (cache on, one
/// warm request evaluated over and over): median result_cache_lookup span
/// and Evaluate time, µs. Stands in for the workloads whose engine runs
/// with the cache off, so those report the layer's cost rather than 0.
struct ResultCacheHit {
  double lookup_us = 0;
  double read_us = 0;
};
ResultCacheHit ProbeResultCacheHit(const Args& args);

/// Per-layer metrics measured by probing each layer's public functions
/// directly (compile, solvers, flow, registry, storage); layers.cc.
void AddLayerProbes(const Args& args, const Replay& replay, Report* report);

/// One whole run of `args.workload`.
Report RunWorkload(const Args& args);

/// Set-up and reference answers only: the seed's resilience checksum, or
/// -1 when a reference cannot be computed. Used to pin checksums.
int64_t ChecksumOnly(const Args& args);

}  // namespace perfbench

#endif  // RPQRES_PERFBENCH_WORKLOAD_H_
