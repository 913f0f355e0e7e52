// Serve router test: the sharded front end must be answer- and
// stats-transparent. Routing is a pure function of the lineage name
// (determinism pinned against a second registry instance), a 4-shard
// router must answer every workload-seeded request exactly like one
// engine evaluating the same instances (cross-shard SubmitBatch
// parity over 200 seeds), and the merged fleet views must be exact:
// summed shard EngineStats equal the router view, and the merged
// metrics snapshot's shard="all" roll-ups equal the sum of the
// per-shard series, with disjoint statuses summing to instances_run.
// The stats structs are views of that export: every field of
// router.stats(), router.engine_stats() and engine.stats() equals its
// exported sample. A seeded fleet (serve_fleet.h) answers alike at 1 and
// 4 shards, sheds a deadline storm, and exports well-formed Prometheus
// text whose shard="all" roll-ups equal the per-shard sums.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "prometheus_text.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "serve_fleet.h"
#include "workload/traffic.h"
#include "workload/workload.h"

namespace rpqres {
namespace {

using serve::Router;
using serve::RouterOptions;
using serve::RouterStats;
using serve::ServeRequest;
using serve::ShardedRegistry;
using workload::MakeWorkloadInstance;
using workload::TrafficOp;
using workload::TrafficTrace;
using workload::WorkloadInstance;

EngineOptions ServeEngineOptions() {
  EngineOptions options;
  options.num_threads = 2;
  return options;
}

TEST(ServeRouterTest, RoutingIsDeterministicAcrossInstances) {
  ShardedRegistry a(4, ServeEngineOptions());
  ShardedRegistry b(4, ServeEngineOptions());

  std::map<int, int> shard_use;
  for (int i = 0; i < 64; ++i) {
    const std::string name = "lineage" + std::to_string(i);
    const int shard = a.ShardForName(name);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    // Same name, same shard: across instances, across reference forms,
    // and repeatably within one instance.
    EXPECT_EQ(shard, b.ShardForName(name)) << name;
    EXPECT_EQ(shard, a.ShardForName(name)) << name;
    EXPECT_EQ(shard, a.ShardForRef(name + "@latest")) << name;
    EXPECT_EQ(shard, a.ShardForRef(name + "@3")) << name;
    ++shard_use[shard];
  }
  // FNV-1a over 64 names must not collapse onto a shard subset.
  EXPECT_EQ(shard_use.size(), 4u);

  // A registered handle routes where its name routes.
  GraphDb db;
  const NodeId u = db.AddNode();
  const NodeId v = db.AddNode();
  db.AddFact(u, 'a', v);
  DbHandle handle = a.Register(std::move(db), "lineage7");
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(a.ShardForHandle(handle), a.ShardForName("lineage7"));
  // And Resolve finds it on that shard.
  Result<DbHandle> resolved = a.Resolve("lineage7@latest");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->id(), handle.id());
}

TEST(ServeRouterTest, CrossShardSubmitBatchMatchesSingleEngine) {
  ShardedRegistry shards(4, ServeEngineOptions());
  Router router(&shards);

  DbRegistry single_registry;
  ResilienceEngine single(ServeEngineOptions());

  // One request per workload seed, registered under the same name in
  // both worlds; the router fans out by name hash, the single engine
  // sees everything.
  std::vector<ServeRequest> routed;
  std::vector<ResilienceRequest> direct;
  for (uint64_t seed = 52000; seed < 52200; ++seed) {
    Result<WorkloadInstance> instance = MakeWorkloadInstance(seed);
    if (!instance.ok()) continue;
    const std::string name = "wl" + std::to_string(seed);
    GraphDb copy = instance->db;
    shards.Register(std::move(instance->db), name);
    single_registry.Register(std::move(copy), name);

    ResilienceRequest request;
    request.regex = instance->query.regex;
    request.db_ref = name + "@latest";
    request.semantics = instance->semantics;

    ResilienceRequest mirror = request;
    mirror.registry = &single_registry;
    direct.push_back(std::move(mirror));
    routed.push_back(
        {"tenant" + std::to_string(seed % 3), std::move(request)});
  }
  ASSERT_GT(routed.size(), 150u);

  std::vector<std::future<ResilienceResponse>> futures =
      router.SubmitBatch(std::move(routed));
  std::vector<ResilienceResponse> expected = single.EvaluateBatch(direct);
  ASSERT_EQ(futures.size(), expected.size());

  for (size_t i = 0; i < futures.size(); ++i) {
    ResilienceResponse got = futures[i].get();
    EXPECT_EQ(got.status, expected[i].status) << i;
    if (!got.status.ok() || !expected[i].status.ok()) continue;
    EXPECT_EQ(got.result.infinite, expected[i].result.infinite) << i;
    EXPECT_EQ(got.result.value, expected[i].result.value) << i;
    EXPECT_EQ(got.result.algorithm, expected[i].result.algorithm) << i;
    EXPECT_EQ(got.stats.complexity, expected[i].stats.complexity) << i;
  }

  // Nothing shed: capacity defaults are far above 200 requests.
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.sheds(), 0);
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(futures.size()));
  EXPECT_EQ(stats.completed, stats.admitted);
}

TEST(ServeRouterTest, MergedStatsAndMetricsAreExactSums) {
  ShardedRegistry shards(4, ServeEngineOptions());
  Router router(&shards);

  TrafficTrace trace(987654321);
  for (int i = 0; i < trace.num_lineages(); ++i) {
    shards.Register(trace.MakeDb(i), trace.lineage_name(i));
  }

  std::vector<std::future<ResilienceResponse>> futures;
  for (const TrafficOp& op : trace.NextOps(400)) {
    if (op.kind == TrafficOp::Kind::kCommit) {
      // Commits apply directly to the home shard's registry.
      DbRegistry& registry =
          shards.registry(shards.ShardForRef(op.db_ref));
      ASSERT_TRUE(TrafficTrace::ApplyCommit(op, &registry).ok());
      continue;
    }
    ResilienceRequest request;
    request.regex = op.regex;
    request.db_ref = op.db_ref;
    request.semantics = op.semantics;
    futures.push_back(router.Submit(
        {"tenant" + std::to_string(op.tenant), std::move(request)}));
  }
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  router.Drain();

  // (1) Summed shard EngineStats == the router's merged view.
  EngineStats merged = router.engine_stats();
  EngineStats manual;
  for (int i = 0; i < shards.num_shards(); ++i) {
    const EngineStats shard = shards.engine(i).stats();
    manual.instances_run += shard.instances_run;
    manual.submits += shard.submits;
    manual.compilations += shard.compilations;
    manual.errors += shard.errors;
    manual.cache_hits += shard.cache_hits;
    manual.cache_misses += shard.cache_misses;
    for (const auto& [algorithm, count] : shard.instances_by_algorithm) {
      manual.instances_by_algorithm[algorithm] += count;
    }
  }
  EXPECT_EQ(merged.instances_run, manual.instances_run);
  EXPECT_EQ(merged.submits, manual.submits);
  EXPECT_EQ(merged.compilations, manual.compilations);
  EXPECT_EQ(merged.errors, manual.errors);
  EXPECT_EQ(merged.cache_hits, manual.cache_hits);
  EXPECT_EQ(merged.cache_misses, manual.cache_misses);
  EXPECT_EQ(merged.instances_by_algorithm, manual.instances_by_algorithm);
  EXPECT_EQ(merged.instances_run, static_cast<int64_t>(futures.size()));
  // Every shard saw traffic: lineage names spread over 4 shards.
  for (int i = 0; i < shards.num_shards(); ++i) {
    EXPECT_GT(shards.engine(i).stats().instances_run, 0) << "shard " << i;
  }

  // (2) Merged snapshot: per-shard series sum to the shard="all"
  // roll-up for every counter family, and the request counter's
  // disjoint statuses sum to instances_run.
  obs::MetricsSnapshot snapshot = router.TakeMetricsSnapshot();
  bool saw_requests_total = false;
  for (const obs::CounterFamily::Snapshot& family : snapshot.counters) {
    std::map<std::string, int64_t> shard_sum;
    std::map<std::string, int64_t> rollup;
    bool has_shards = false;
    for (const obs::CounterFamily::Sample& sample : family.samples) {
      if (sample.shard.empty()) continue;  // router-level family
      has_shards = true;
      (sample.shard == "all" ? rollup : shard_sum)[sample.label] +=
          sample.value;
    }
    if (!has_shards) continue;
    EXPECT_EQ(shard_sum, rollup) << family.name;
    if (family.name == "rpqres_requests_total") {
      saw_requests_total = true;
      int64_t total = 0;
      for (const auto& [status, count] : rollup) total += count;
      EXPECT_EQ(total, merged.instances_run);
      EXPECT_EQ(rollup["ok"], merged.instances_run - merged.errors);
    }
  }
  EXPECT_TRUE(saw_requests_total);

  // Histogram roll-ups too: per-label total_count sums match.
  for (const obs::HistogramFamily::Snapshot& family : snapshot.histograms) {
    std::map<std::string, uint64_t> shard_sum;
    std::map<std::string, uint64_t> rollup;
    bool has_shards = false;
    for (const obs::HistogramFamily::Series& series : family.series) {
      if (series.shard.empty()) continue;
      has_shards = true;
      (series.shard == "all" ? rollup : shard_sum)[series.label] +=
          series.histogram.total_count;
    }
    if (has_shards) EXPECT_EQ(shard_sum, rollup) << family.name;
  }
}

TEST(ServeRouterTest, FleetAnswersAndExpositionAgreeAcrossShardCounts) {
  const serve_fleet::FleetRun single = serve_fleet::RunFleet(1);
  const serve_fleet::FleetRun sharded = serve_fleet::RunFleet(4);
  for (const serve_fleet::FleetRun* run : {&single, &sharded}) {
    EXPECT_GT(run->reads, 0);
    EXPECT_EQ(run->errors, 0);
    EXPECT_GT(run->storm_deadline_sheds, 0);
    for (const obs::LatencyHistogram::Snapshot& latency :
         run->shard_latency) {
      EXPECT_GT(latency.total_count, 0u);
      EXPECT_LE(latency.Quantile(0.5), latency.Quantile(0.99));
    }
  }
  EXPECT_EQ(single.checksum, sharded.checksum);

  // The merged exposition, with one HELP/TYPE header per family.
  std::vector<std::string> failures;
  const std::vector<prom_text::Sample> samples =
      prom_text::Parse(sharded.prometheus, &failures);
  EXPECT_TRUE(failures.empty()) << ::testing::PrintToString(failures);
  EXPECT_TRUE(prom_text::RepeatedFamilyHeaders(sharded.prometheus).empty())
      << ::testing::PrintToString(
             prom_text::RepeatedFamilyHeaders(sharded.prometheus));
  // Sample values by series (labels other than shard), then by shard.
  std::map<std::string, std::map<std::string, double>> series_by_shard;
  for (const prom_text::Sample& sample : samples) {
    std::map<std::string, std::string> labels = sample.labels;
    auto shard = labels.find("shard");
    if (shard == labels.end()) continue;
    const std::string shard_name = shard->second;
    labels.erase(shard);
    series_by_shard[prom_text::SeriesKey(sample.name, labels)][shard_name] =
        sample.value;
  }
  std::set<std::string> shards_seen;
  std::set<std::string> request_shards;
  int rollups = 0;
  for (const auto& [series, by_shard] : series_by_shard) {
    double total = 0;
    for (const auto& [shard, value] : by_shard) {
      if (shard == "all") continue;
      shards_seen.insert(shard);
      if (series.rfind("rpqres_requests_total{", 0) == 0) {
        request_shards.insert(shard);
      }
      total += value;
    }
    auto rollup = by_shard.find("all");
    if (rollup == by_shard.end()) continue;  // gauges have no roll-up
    ++rollups;
    // _sum samples are printed to 10 significant digits.
    const bool rounded = series.find("_sum{") != std::string::npos;
    EXPECT_NEAR(rollup->second, total,
                rounded ? 1e-6 * std::max(1.0, std::abs(total)) : 0.0)
        << series;
  }
  const std::set<std::string> all_shards = {"0", "1", "2", "3"};
  EXPECT_EQ(shards_seen, all_shards);
  EXPECT_EQ(request_shards, all_shards);
  EXPECT_GT(rollups, 0);
}

// The stats structs are views of the export: each field equals one
// exported sample (or a sum of them). Read straight from the snapshot
// here, independently of EngineStatsFromMetrics.
int64_t SampleValue(const obs::MetricsSnapshot& snapshot,
                    std::string_view family, std::string_view label,
                    std::string_view shard) {
  for (const obs::CounterFamily::Snapshot& f : snapshot.counters) {
    if (f.name != family) continue;
    for (const obs::CounterFamily::Sample& sample : f.samples) {
      if (sample.label == label && sample.shard == shard) return sample.value;
    }
  }
  ADD_FAILURE() << "no sample " << family << "{" << label << "} shard=\""
                << shard << "\"";
  return -1;
}

void ExpectEngineStatsMatchExport(const EngineStats& stats,
                                  const obs::MetricsSnapshot& snapshot,
                                  std::string_view shard) {
  auto sample = [&](std::string_view family, std::string_view label) {
    return SampleValue(snapshot, family, label, shard);
  };
  constexpr std::string_view kPlan = "rpqres_plan_cache_events_total";
  constexpr std::string_view kResult = "rpqres_result_cache_events_total";
  constexpr std::string_view kEngine = "rpqres_engine_events_total";
  constexpr std::string_view kStatus = "rpqres_requests_total";
  EXPECT_EQ(stats.cache_hits, sample(kPlan, "hit")) << shard;
  EXPECT_EQ(stats.cache_misses, sample(kPlan, "miss")) << shard;
  EXPECT_EQ(stats.cache_evictions, sample(kPlan, "eviction")) << shard;
  EXPECT_EQ(stats.result_cache_hits, sample(kResult, "hit")) << shard;
  EXPECT_EQ(stats.result_cache_misses, sample(kResult, "miss")) << shard;
  EXPECT_EQ(stats.result_cache_evictions, sample(kResult, "eviction"))
      << shard;
  EXPECT_EQ(stats.result_cache_invalidations,
            sample(kResult, "invalidation"))
      << shard;
  EXPECT_EQ(stats.batches_run, sample(kEngine, "batch")) << shard;
  EXPECT_EQ(stats.compilations, sample(kEngine, "compilation")) << shard;
  EXPECT_EQ(stats.differentials_run, sample(kEngine, "differential"))
      << shard;
  EXPECT_EQ(stats.differential_mismatches,
            sample(kEngine, "differential_mismatch"))
      << shard;
  EXPECT_EQ(stats.submits, sample(kEngine, "submit")) << shard;
  const int64_t ok = sample(kStatus, "ok");
  const int64_t error = sample(kStatus, "error");
  const int64_t deadline = sample(kStatus, "deadline_exceeded");
  const int64_t cancelled = sample(kStatus, "cancelled");
  EXPECT_EQ(stats.instances_run, ok + error + deadline + cancelled) << shard;
  EXPECT_EQ(stats.errors, error + deadline + cancelled) << shard;
  EXPECT_EQ(stats.deadline_exceeded, deadline) << shard;
  EXPECT_EQ(stats.cancelled, cancelled) << shard;
  std::map<std::string, int64_t> by_algorithm;
  for (const obs::CounterFamily::Snapshot& f : snapshot.counters) {
    if (f.name != "rpqres_requests_by_algorithm_total") continue;
    for (const obs::CounterFamily::Sample& s : f.samples) {
      if (s.shard == shard && s.value > 0) by_algorithm[s.label] = s.value;
    }
  }
  EXPECT_EQ(stats.instances_by_algorithm, by_algorithm) << shard;
}

TEST(ServeRouterTest, StatsViewsMatchTheExport) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("rpqres_router_views_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  EngineOptions engine_options = ServeEngineOptions();
  engine_options.result_cache_capacity = 64;
  DbRegistry::Options registry_options;
  registry_options.storage_dir = dir;
  {
    ShardedRegistry shards(2, engine_options, registry_options);
    Router router(&shards);
    // One lineage per shard.
    std::string names[2];
    for (int i = 0; names[0].empty() || names[1].empty(); ++i) {
      const std::string name = "viewdb" + std::to_string(i);
      std::string& slot = names[shards.ShardForName(name)];
      if (slot.empty()) slot = name;
    }
    for (const std::string& name : names) {
      GraphDb db;
      const NodeId u = db.AddNode();
      const NodeId v = db.AddNode();
      const NodeId w = db.AddNode();
      db.AddFact(u, 'a', v);
      db.AddFact(v, 'b', w);
      shards.Register(std::move(db), name);
    }
    auto read = [&](const std::string& name, const std::string& regex) {
      ResilienceRequest request;
      request.regex = regex;
      request.db_ref = name + "@latest";
      return router.Evaluate({"acme", std::move(request)});
    };

    // Admitted reads: a plan-cache miss and a result-cache miss per
    // (shard, regex) first, then result-cache hits.
    int reads = 0;
    for (int round = 0; round < 3; ++round) {
      for (const std::string& name : names) {
        for (const char* regex : {"ab", "ax*b"}) {
          ASSERT_TRUE(read(name, regex).status.ok());
          ++reads;
        }
      }
    }
    // A deadline shed.
    ResilienceRequest late;
    late.regex = "ab";
    late.db_ref = names[0] + "@latest";
    late.options.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    EXPECT_EQ(router.Evaluate({"acme", std::move(late)}).status.code(),
              StatusCode::kDeadlineExceeded);
    // An applied commit, then a health-shed commit on a degraded shard.
    auto add_fact = [](DeltaBatch* batch) {
      const NodeId n = batch->AddNode();
      return batch->AddFact(0, 'c', n).status();
    };
    ASSERT_TRUE(router.Commit("acme", names[0], add_fact).ok());
    shards.registry(1).DegradeStorageForTesting(
        Status::Unavailable("degraded for the test"));
    EXPECT_EQ(router.Commit("acme", names[1], add_fact).status().code(),
              StatusCode::kUnavailable);
    router.Drain();

    const obs::MetricsSnapshot snapshot = router.TakeMetricsSnapshot();
    const RouterStats rs = router.stats();
    constexpr std::string_view kDecision = "rpqres_router_admission_total";
    constexpr std::string_view kEvents = "rpqres_router_events_total";
    EXPECT_EQ(rs.admitted, SampleValue(snapshot, kDecision, "admitted", ""));
    EXPECT_EQ(rs.shed_deadline_expired,
              SampleValue(snapshot, kDecision, "shed_deadline_expired", ""));
    EXPECT_EQ(rs.shed_deadline_unmeetable,
              SampleValue(snapshot, kDecision, "shed_deadline_unmeetable", ""));
    EXPECT_EQ(rs.shed_shard_saturated,
              SampleValue(snapshot, kDecision, "shed_shard_saturated", ""));
    EXPECT_EQ(rs.shed_tenant_cap,
              SampleValue(snapshot, kDecision, "shed_tenant_cap", ""));
    EXPECT_EQ(rs.shed_shard_unavailable,
              SampleValue(snapshot, kDecision, "shed_shard_unavailable", ""));
    EXPECT_EQ(rs.completed, SampleValue(snapshot, kEvents, "completed", ""));
    EXPECT_EQ(rs.commits_applied,
              SampleValue(snapshot, kEvents, "commit_applied", ""));
    EXPECT_EQ(rs.commits_unavailable,
              SampleValue(snapshot, kEvents, "commit_unavailable", ""));
    // And the traffic above, exactly: the shed commit counts as submitted.
    EXPECT_EQ(rs.admitted, reads);
    EXPECT_EQ(rs.completed, reads);
    EXPECT_EQ(rs.shed_deadline_expired, 1);
    EXPECT_EQ(rs.shed_shard_unavailable, 1);
    EXPECT_EQ(rs.sheds(), 2);
    EXPECT_EQ(rs.submitted, reads + 2);
    EXPECT_EQ(rs.commits_applied, 1);
    EXPECT_EQ(rs.commits_unavailable, 0);

    const EngineStats es = router.engine_stats();
    ExpectEngineStatsMatchExport(es, snapshot, "all");
    EXPECT_EQ(es.instances_run, reads);
    EXPECT_EQ(es.submits, reads);
    EXPECT_EQ(es.cache_misses, 4);  // one per (shard, regex)
    EXPECT_EQ(es.result_cache_misses, 4);
    EXPECT_EQ(es.result_cache_hits, reads - 4);
    for (int i = 0; i < shards.num_shards(); ++i) {
      ExpectEngineStatsMatchExport(shards.engine(i).stats(),
                                   shards.engine(i).TakeMetricsSnapshot(), "");
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rpqres
