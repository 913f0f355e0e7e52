// Seeded scenario checksums: every scenario's databases solved once
// through a ResilienceEngine, the finite answers summed and scaled by the
// scenario's repetitions, must equal the pinned value. The databases are
// a pure function of their seeds, so the figures are the same on every
// machine and any drift means a solver changed its answers. The 13
// scenarios cover each dispatch path (Thm 3.13 local flow, Prp 7.6 BCL,
// Prp 7.9 one-dangling, exact branch & bound), noisy and pruning-heavy
// products, the version-keyed result cache, delta commits against
// from-scratch rebuilds, and tracing off against tracing on.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
#include "util/rng.h"

namespace rpqres {
namespace {

std::vector<GraphDb> LocalDbs() {
  Rng rng(1234);
  std::vector<GraphDb> dbs;
  for (int layers : {2, 4, 8, 16}) {
    dbs.push_back(LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/6,
                                /*sinks=*/4, /*density=*/0.4,
                                /*max_multiplicity=*/50));
  }
  return dbs;
}

std::vector<GraphDb> BclDbs() {
  Rng rng(99);
  std::vector<GraphDb> dbs;
  for (int count : {8, 16, 32}) {
    dbs.push_back(WordSoupDb(&rng, {"ab", "bc"}, count,
                             /*extra_labels=*/{'a', 'b', 'c'},
                             /*cross_links=*/2 * count,
                             /*max_multiplicity=*/10));
  }
  return dbs;
}

std::vector<GraphDb> OneDanglingDbs() {
  Rng rng(7);
  std::vector<GraphDb> dbs;
  for (int pairs : {8, 16, 32}) {
    dbs.push_back(DanglingPairsDb(&rng, /*num_nodes=*/30, /*base_facts=*/60,
                                  /*base_labels=*/{'a', 'b', 'c'},
                                  /*x=*/'b', /*y=*/'e', pairs,
                                  /*max_multiplicity=*/5));
  }
  return dbs;
}

std::vector<GraphDb> ExactDbs() {
  Rng rng(42);
  std::vector<GraphDb> dbs;
  for (int facts : {12, 18, 24}) {
    dbs.push_back(RandomGraphDb(&rng, /*num_nodes=*/8, facts,
                                {'a', 'b', 'c'}, /*max_multiplicity=*/3));
  }
  return dbs;
}

// Layered ax*b networks drowned in facts whose labels the query never
// reads; the label index skips them.
std::vector<GraphDb> NoisyLocalDbs() {
  Rng rng(2718);
  std::vector<GraphDb> dbs;
  for (int layers : {4, 8, 16}) {
    GraphDb db = LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/6,
                               /*sinks=*/4, /*density=*/0.4,
                               /*max_multiplicity=*/50);
    const int nodes = db.num_nodes();
    const int noise_facts = 20 * db.num_facts();
    for (int i = 0; i < noise_facts; ++i) {
      const char label = static_cast<char>('m' + rng.NextBelow(4));
      db.AddFact(static_cast<NodeId>(rng.NextBelow(nodes)), label,
                 static_cast<NodeId>(rng.NextBelow(nodes)),
                 /*multiplicity=*/1 + rng.NextBelow(5));
    }
    dbs.push_back(std::move(db));
  }
  return dbs;
}

// Deep layered products: nearly every product vertex is live.
std::vector<GraphDb> DeepProductDbs() {
  Rng rng(31337);
  std::vector<GraphDb> dbs;
  for (int layers : {24, 32}) {
    dbs.push_back(LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/8,
                                /*sinks=*/4, /*density=*/0.35,
                                /*max_multiplicity=*/40));
  }
  return dbs;
}

// A small layered ax*b region among many x-facts that no a-path
// reaches: the reach/co-reach sweep prunes all of them.
std::vector<GraphDb> SparseProductDbs() {
  Rng rng(5150);
  std::vector<GraphDb> dbs;
  for (int layers : {4, 8}) {
    GraphDb db = LayeredFlowDb(&rng, /*sources=*/3, layers, /*width=*/5,
                               /*sinks=*/3, /*density=*/0.5,
                               /*max_multiplicity=*/20);
    const int base_nodes = db.num_nodes();
    const int extra_nodes = 6 * base_nodes;
    for (int i = 0; i < extra_nodes; ++i) db.AddNode();
    const int stray_x = 10 * db.num_facts();
    for (int i = 0; i < stray_x; ++i) {
      const NodeId u =
          base_nodes + static_cast<NodeId>(rng.NextBelow(extra_nodes));
      const NodeId v =
          base_nodes + static_cast<NodeId>(rng.NextBelow(extra_nodes));
      db.AddFact(u, 'x', v, /*multiplicity=*/1 + rng.NextBelow(8));
    }
    dbs.push_back(std::move(db));
  }
  return dbs;
}

std::vector<ResilienceRequest> Requests(DbRegistry* registry,
                                        std::vector<GraphDb> dbs,
                                        const char* regex,
                                        Semantics semantics) {
  std::vector<ResilienceRequest> requests;
  for (GraphDb& db : dbs) {
    ResilienceRequest request;
    request.regex = regex;
    request.db = registry->Register(std::move(db));
    request.semantics = semantics;
    requests.push_back(std::move(request));
  }
  return requests;
}

// Sum of the finite answers of one pass; every request must succeed.
int64_t Checksum(ResilienceEngine& engine,
                 const std::vector<ResilienceRequest>& requests) {
  int64_t sum = 0;
  for (const ResilienceResponse& response : engine.EvaluateBatch(requests)) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    if (response.status.ok() && !response.result.infinite) {
      sum += response.result.value;
    }
  }
  return sum;
}

struct Scenario {
  const char* name;
  const char* regex;
  Semantics semantics;
  std::vector<GraphDb> (*databases)();
  int repetitions;
  int instances;
  int64_t checksum;
};

TEST(ScenarioChecksumTest, DispatchScenarios) {
  const Scenario scenarios[] = {
      {"local_ax_star_b", "ax*b", Semantics::kBag, LocalDbs, 5, 20, 1230},
      {"bcl_ab_or_bc", "ab|bc", Semantics::kBag, BclDbs, 5, 15, 1500},
      {"one_dangling_abc_be", "abc|be", Semantics::kBag, OneDanglingDbs, 5,
       15, 960},
      {"exact_ab_bc_ca", "ab|bc|ca", Semantics::kSet, ExactDbs, 3, 9, 57},
      {"mixed_cache_churn", "ax*b", Semantics::kBag, BclDbs, 2, 6, 354},
      {"handle_vs_raw_v2_handle", "ax*b", Semantics::kBag, NoisyLocalDbs, 20,
       60, 2140},
      {"flow_core_csr_deep_product", "ax*b", Semantics::kBag, DeepProductDbs,
       10, 20, 630},
      {"flow_core_csr_sparse_product", "ax*b", Semantics::kBag,
       SparseProductDbs, 15, 30, 720},
  };
  DbRegistry registry;
  ResilienceEngine engine;
  for (const Scenario& scenario : scenarios) {
    const std::vector<ResilienceRequest> requests = Requests(
        &registry, scenario.databases(), scenario.regex, scenario.semantics);
    EXPECT_EQ(static_cast<int>(requests.size()) * scenario.repetitions,
              scenario.instances)
        << scenario.name;
    EXPECT_EQ(Checksum(engine, requests) * scenario.repetitions,
              scenario.checksum)
        << scenario.name;
  }
}

// result_cache_hot: the noisy databases again, answered from the
// version-keyed result cache on the second pass.
TEST(ScenarioChecksumTest, ResultCacheHot) {
  EngineOptions options;
  options.result_cache_capacity = 4096;
  ResilienceEngine engine(options);
  DbRegistry registry;
  const std::vector<ResilienceRequest> requests =
      Requests(&registry, NoisyLocalDbs(), "ax*b", Semantics::kBag);
  const int64_t cold = Checksum(engine, requests);
  const int64_t hot = Checksum(engine, requests);
  EXPECT_EQ(engine.stats().result_cache_hits,
            static_cast<int64_t>(requests.size()));
  EXPECT_EQ(cold, hot);
  EXPECT_EQ(hot * 20, 2140);  // 20 repetitions
}

// obs_off_deep_product / obs_on_deep_product: tracing must not change an
// answer.
TEST(ScenarioChecksumTest, ObservabilityPair) {
  for (bool tracing : {false, true}) {
    EngineOptions options;
    options.num_threads = 1;
    options.enable_tracing = tracing;
    ResilienceEngine engine(options);
    DbRegistry registry;
    const std::vector<ResilienceRequest> requests =
        Requests(&registry, DeepProductDbs(), "ax*b", Semantics::kBag);
    // 60 repetitions.
    EXPECT_EQ(Checksum(engine, requests) * 60, 3780) << "tracing " << tracing;
  }
}

// delta_commit_small / delta_commit_vs_rebuild: 40 two-op delta commits
// (add an x-fact, remove a fact) on bases of 4k, 16k and 64k facts; the
// final version answers as a flat twin that replayed the same ops and
// was registered from scratch.
TEST(ScenarioChecksumTest, DeltaCommitsMatchRebuilds) {
  constexpr int kCommits = 40;
  ResilienceEngine engine;
  int instances = 0;
  int64_t delta_checksum = 0;
  int64_t rebuild_checksum = 0;
  for (int num_facts : {4000, 16000, 64000}) {
    Rng rng(777 + num_facts);
    GraphDb base = RandomGraphDb(&rng, /*num_nodes=*/num_facts / 10,
                                 num_facts,
                                 {'a', 'x', 'b', 'm', 'n', 'o', 'p', 'q'},
                                 /*max_multiplicity=*/4);
    DbRegistry registry;
    GraphDb twin = base;
    DbHandle latest = registry.Register(std::move(base), "delta");
    for (int commit = 0; commit < kCommits; ++commit) {
      const int nodes = twin.num_nodes();
      const NodeId u = static_cast<NodeId>(rng.NextBelow(nodes));
      const NodeId v = static_cast<NodeId>(rng.NextBelow(nodes));
      const Fact removed =
          twin.fact(static_cast<FactId>(rng.NextBelow(twin.num_facts())));
      DeltaBatch batch = registry.BeginDelta(latest);
      ASSERT_TRUE(batch.AddFact(u, 'x', v).ok());
      ASSERT_TRUE(
          batch.RemoveFact(removed.source, removed.label, removed.target)
              .ok());
      Result<DbHandle> committed = batch.Commit();
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      latest = *std::move(committed);
      ++instances;

      twin.AddFact(u, 'x', v);
      twin = twin.RemoveFacts(
          {twin.FindFact(removed.source, removed.label, removed.target)});
    }
    DbHandle rebuilt = registry.Register(twin, "rebuild");
    for (auto [handle, sum] : {std::make_pair(&latest, &delta_checksum),
                               std::make_pair(&rebuilt, &rebuild_checksum)}) {
      ResilienceRequest request;
      request.regex = "ax*b";
      request.db = *handle;
      request.semantics = Semantics::kBag;
      *sum += Checksum(engine, {request});
    }
  }
  EXPECT_EQ(instances, 120);
  EXPECT_EQ(delta_checksum, 16148);
  EXPECT_EQ(rebuild_checksum, 16148);
}

}  // namespace
}  // namespace rpqres
