// One seeded serving fleet replayed through a Router, for the serve
// gates: serve_router_test pins its answers and its merged exposition,
// serve_timing_test its multi-shard read throughput.
//
// The fleet is 32 lineages x 4 queries x {set, bag} = 256 distinct read
// keys. Each shard gets a fixed engine — 2 threads and a 96-entry result
// cache — so one shard thrashes its cache while 4 shards each keep their
// slice resident. Commits touch only noise labels, so the answers, and
// the run's checksum, do not depend on the shard count.

#ifndef RPQRES_TESTS_SERVE_FLEET_H_
#define RPQRES_TESTS_SERVE_FLEET_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/request.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "workload/traffic.h"

namespace rpqres::serve_fleet {

inline constexpr uint64_t kTrafficSeed = 31415926;
inline constexpr int kTimedOps = 5000;
inline constexpr int kWave = 250;  // in flight at once: below every cap
inline constexpr int kStormRequests = 600;

inline EngineOptions ShardEngineOptions() {
  EngineOptions options;
  options.num_threads = 2;
  options.result_cache_capacity = 96;
  return options;
}

inline workload::TrafficOptions FleetTrafficOptions() {
  workload::TrafficOptions options;
  options.num_lineages = 32;
  // A miss prices a real solve, so the resident-vs-thrashing contrast
  // between shard counts dwarfs router overhead.
  options.db_num_nodes = 80;
  options.db_num_facts = 320;
  return options;
}

struct FleetRun {
  int64_t reads = 0;
  int64_t errors = 0;
  int64_t checksum = 0;  ///< sum of the finite answers
  double wall_micros = 0;
  std::vector<obs::LatencyHistogram::Snapshot> shard_latency;
  /// Deadline storm: one tenant sends kStormRequests to one lineage,
  /// every other one already past its deadline.
  int64_t storm_deadline_sheds = 0;
  std::string prometheus;  ///< the router's merged exposition, last
};

/// Warms every read key once (untimed), replays kTimedOps operations of
/// the trace in waves of kWave reads, then runs the deadline storm.
inline FleetRun RunFleet(int num_shards) {
  using workload::TrafficOp;
  serve::ShardedRegistry shards(num_shards, ShardEngineOptions());
  serve::Router router(&shards);
  workload::TrafficTrace trace(kTrafficSeed, FleetTrafficOptions());
  for (int i = 0; i < trace.num_lineages(); ++i) {
    shards.Register(trace.MakeDb(i), trace.lineage_name(i));
  }
  const std::vector<std::string>& pool = workload::TrafficReadPool();
  const int per_lineage = trace.options().queries_per_lineage;
  std::vector<std::future<ResilienceResponse>> warm;
  for (int lineage = 0; lineage < trace.num_lineages(); ++lineage) {
    for (int j = 0; j < per_lineage; ++j) {
      for (Semantics semantics : {Semantics::kBag, Semantics::kSet}) {
        ResilienceRequest request;
        request.regex = pool[(lineage * per_lineage + j) % pool.size()];
        request.db_ref = trace.lineage_name(lineage) + "@latest";
        request.semantics = semantics;
        warm.push_back(router.Submit({"warmup", std::move(request)}));
      }
    }
  }
  for (auto& future : warm) future.get();
  router.Drain();

  FleetRun run;
  std::vector<std::future<ResilienceResponse>> inflight;
  auto drain_wave = [&] {
    for (auto& future : inflight) {
      const ResilienceResponse response = future.get();
      if (!response.status.ok()) {
        ++run.errors;
      } else if (!response.result.infinite) {
        run.checksum += response.result.value;
      }
    }
    inflight.clear();
  };
  const auto start = std::chrono::steady_clock::now();
  for (TrafficOp& op : trace.NextOps(kTimedOps)) {
    if (op.kind == TrafficOp::Kind::kCommit) {
      DbRegistry& registry = shards.registry(shards.ShardForRef(op.db_ref));
      if (!workload::TrafficTrace::ApplyCommit(op, &registry).ok()) {
        ++run.errors;
      }
      continue;
    }
    ResilienceRequest request;
    request.regex = op.regex;
    request.db_ref = op.db_ref;
    request.semantics = op.semantics;
    inflight.push_back(router.Submit(
        {"tenant" + std::to_string(op.tenant), std::move(request)}));
    ++run.reads;
    if (inflight.size() >= kWave) drain_wave();
  }
  drain_wave();
  router.Drain();
  run.wall_micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  for (int i = 0; i < num_shards; ++i) {
    run.shard_latency.push_back(router.admission().ShardLatency(i));
  }

  std::vector<std::future<ResilienceResponse>> storm;
  for (int i = 0; i < kStormRequests; ++i) {
    ResilienceRequest request;
    request.regex = pool[0];
    request.db_ref = trace.lineage_name(0) + "@latest";
    request.semantics = Semantics::kBag;
    if (i % 2 == 0) {
      request.options.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    }
    storm.push_back(router.Submit({"storm", std::move(request)}));
  }
  for (auto& future : storm) {
    if (future.get().status.code() == StatusCode::kDeadlineExceeded) {
      ++run.storm_deadline_sheds;
    }
  }
  router.Drain();
  run.prometheus = router.ExportMetrics(MetricsFormat::kPrometheus);
  return run;
}

}  // namespace rpqres::serve_fleet

#endif  // RPQRES_TESTS_SERVE_FLEET_H_
