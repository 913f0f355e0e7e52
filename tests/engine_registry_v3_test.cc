// DbRegistry v3: lineages, delta commits, name resolution, compaction,
// and the handle-safety contract. (The workload churn suite covers deep
// randomized equivalence; this file pins the API semantics.)

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/serialization.h"

namespace rpqres {
namespace {

GraphDb ChainDb() {
  GraphDb db;
  NodeId a = db.AddNode("a");
  NodeId b = db.AddNode("b");
  NodeId c = db.AddNode("c");
  db.AddFact(a, 'a', b);
  db.AddFact(b, 'x', c);
  return db;
}

TEST(DbRegistryV3Test, RegisterCreatesVersionOne) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb(), "orders");
  EXPECT_TRUE(v1.valid());
  EXPECT_EQ(v1.version(), 1u);
  EXPECT_EQ(v1.lineage(), v1.id());
  EXPECT_EQ(v1.name(), "orders");
  EXPECT_EQ(registry.size(), 1u);
}

TEST(DbRegistryV3Test, InvalidHandleAccessorsAreSafe) {
  DbHandle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.id(), 0u);
  EXPECT_EQ(invalid.lineage(), 0u);
  EXPECT_EQ(invalid.version(), 0u);
  EXPECT_EQ(invalid.name(), "");
  EXPECT_EQ(invalid.label_index(), nullptr);
}

TEST(DbRegistryV3Test, DeltaCommitProducesNextVersion) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb(), "orders");
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.valid());
  NodeId d = batch.AddNode("d");
  ASSERT_TRUE(batch.AddFact(2, 'b', d).ok());
  ASSERT_TRUE(batch.RemoveFact(0, 'a', 1).ok());
  Result<DbHandle> v2 = batch.Commit();
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_EQ(v2->lineage(), v1.lineage());
  EXPECT_EQ(v2->name(), "orders");
  EXPECT_NE(v2->id(), v1.id());
  // v2 is a copy-on-write overlay; v1 is untouched.
  EXPECT_TRUE(v2->db().is_versioned());
  EXPECT_EQ(v2->db().num_live_facts(), 2);
  EXPECT_EQ(v1.db().num_facts(), 2);
  EXPECT_FALSE(v1.db().is_versioned());
  // The index was patched: 'x' untouched (shared), 'a'/'b' rebuilt.
  EXPECT_GT(v2->label_index()->shared_labels(), 0);
  // Batches are one-shot.
  EXPECT_EQ(batch.Commit().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(batch.valid());
}

TEST(DbRegistryV3Test, DeltaBatchValidatesArguments) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb());
  DeltaBatch batch = registry.BeginDelta(v1);
  EXPECT_EQ(batch.AddFact(0, 'a', 99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.AddFact(-1, 'a', 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.RemoveFact(0, 'z', 1).code(), StatusCode::kNotFound);

  DeltaBatch invalid = registry.BeginDelta(DbHandle());
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.AddFact(0, 'a', 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(invalid.Commit().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DbRegistryV3Test, DeltaBatchBoundsMultiplicities) {
  GraphDb base = ChainDb();
  base.AddFact(0, 'a', 1, kMaxMultiplicity - 2);  // bumps a-fact 0 to 2^29 − 1
  DbRegistry registry;
  DbHandle v1 = registry.Register(std::move(base));
  DeltaBatch batch = registry.BeginDelta(v1);
  // A new fact: the bound is accepted, one more is not.
  EXPECT_EQ(batch.AddFact(2, 'b', 0, kMaxMultiplicity + 1).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(batch.AddFact(2, 'b', 0, kMaxMultiplicity).ok());
  EXPECT_EQ(batch.AddFact(2, 'b', 0).status().code(),
            StatusCode::kInvalidArgument);
  // Bumps of a base fact accumulate up to the bound, never past it.
  EXPECT_EQ(batch.AddFact(0, 'a', 1, 2).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(batch.AddFact(0, 'a', 1).ok());
  Result<DbHandle> v2 = batch.Commit();
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(v2->db().multiplicity(0), kMaxMultiplicity);
  EXPECT_EQ(v2->db().multiplicity(v2->db().FindFact(2, 'b', 0)),
            kMaxMultiplicity);
}

TEST(DbRegistryV3Test, ConcurrentCommitOnSameParentAborts) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb(), "orders");
  DeltaBatch first = registry.BeginDelta(v1);
  DeltaBatch second = registry.BeginDelta(v1);
  ASSERT_TRUE(first.AddFact(0, 'b', 2).ok());
  ASSERT_TRUE(second.AddFact(1, 'b', 2).ok());
  ASSERT_TRUE(first.Commit().ok());
  Result<DbHandle> conflict = second.Commit();
  EXPECT_EQ(conflict.status().code(), StatusCode::kAborted);
  EXPECT_EQ(registry.stats().commit_conflicts, 1);
  // Retry from the new latest succeeds.
  DeltaBatch retry = registry.BeginDelta(registry.Find("orders"));
  ASSERT_TRUE(retry.AddFact(1, 'b', 2).ok());
  EXPECT_TRUE(retry.Commit().ok());
}

TEST(DbRegistryV3Test, FindAndResolveByName) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb(), "orders");
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.AddFact(0, 'b', 2).ok());
  DbHandle v2 = *batch.Commit();

  EXPECT_EQ(registry.Find("orders").id(), v2.id());
  EXPECT_FALSE(registry.Find("nope").valid());
  EXPECT_EQ(registry.Find(v1.id()).id(), v1.id());

  EXPECT_EQ(registry.Resolve("orders")->id(), v2.id());
  EXPECT_EQ(registry.Resolve("orders@latest")->id(), v2.id());
  EXPECT_EQ(registry.Resolve("orders@1")->id(), v1.id());
  EXPECT_EQ(registry.Resolve("orders@2")->id(), v2.id());
  EXPECT_EQ(registry.Resolve("orders@3").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Resolve("nope@latest").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.Resolve("orders@zero").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Resolve("@latest").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Latest(v1.lineage()).id(), v2.id());
}

TEST(DbRegistryV3Test, UnregisterVersionsAndLineages) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb(), "orders");
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.AddFact(0, 'b', 2).ok());
  DbHandle v2 = *batch.Commit();
  EXPECT_EQ(registry.size(), 2u);

  // Dropping the latest makes the previous version latest again.
  EXPECT_TRUE(registry.Unregister(v2.id()));
  EXPECT_EQ(registry.Find("orders").id(), v1.id());
  // The dropped handle still works (snapshot alive via the handle).
  EXPECT_EQ(v2.db().num_live_facts(), 3);
  EXPECT_EQ(v2.name(), "orders");

  EXPECT_EQ(registry.UnregisterLineage(v1.lineage()), 1);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_FALSE(registry.Find("orders").valid());
  EXPECT_EQ(registry.UnregisterLineage(v1.lineage()), 0);

  // Committing against an unregistered lineage: NotFound.
  DeltaBatch stale = registry.BeginDelta(v1);
  ASSERT_TRUE(stale.AddFact(0, 'b', 2).ok());
  EXPECT_EQ(stale.Commit().status().code(), StatusCode::kNotFound);
}

TEST(DbRegistryV3Test, VersionsAreNeverRecycledAfterUnregister) {
  DbRegistry registry;
  EngineOptions options;
  options.result_cache_capacity = 64;
  ResilienceEngine engine(options);
  DbHandle v1 = registry.Register(ChainDb(), "orders");
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.RemoveFact(0, 'a', 1).ok());
  DbHandle v2 = *batch.Commit();
  // Cache an answer under (lineage, 2): RES(ax*) == 0 without the a-fact.
  ResilienceResponse cached = engine.Evaluate({.regex = "ax*", .db = v2});
  ASSERT_TRUE(cached.status.ok());
  EXPECT_EQ(cached.result.value, 0);

  // Drop v2 and commit a DIFFERENT delta from v1. The new version must
  // not reuse number 2 — a recycled (lineage, version) key would serve
  // the dead v2's cached answer for this new database.
  ASSERT_TRUE(registry.Unregister(v2.id()));
  DeltaBatch retry = registry.BeginDelta(v1);
  ASSERT_TRUE(retry.AddFact(1, 'a', 2).ok());
  DbHandle v3 = *retry.Commit();
  EXPECT_EQ(v3.version(), 3u);
  ResilienceResponse fresh = engine.Evaluate({.regex = "ax*", .db = v3});
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.stats.result_cache_hit);
  EXPECT_EQ(fresh.result.value, 2);  // both a-facts must go
}

TEST(DbRegistryV3Test, MovedFromBatchIsInvalid) {
  DbRegistry registry;
  DbHandle v1 = registry.Register(ChainDb());
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.AddFact(0, 'b', 2).ok());
  DeltaBatch taken = std::move(batch);
  EXPECT_FALSE(batch.valid());
  EXPECT_EQ(batch.Commit().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(batch.AddFact(0, 'b', 1).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(taken.valid());
  EXPECT_TRUE(taken.Commit().ok());
}

TEST(DbRegistryV3Test, CompactionFoldsLargeOverlays) {
  DbRegistry::Options options;
  options.compaction_min_overlay = 4;
  options.compaction_fraction = 0.25;
  DbRegistry registry(options);
  DbHandle latest = registry.Register(ChainDb(), "hot");
  // Grow the overlay past the threshold across several commits.
  for (int round = 0; round < 4; ++round) {
    DeltaBatch batch = registry.BeginDelta(latest);
    for (int i = 0; i < 3; ++i) {
      NodeId n = batch.AddNode();
      ASSERT_TRUE(batch.AddFact(0, 'b', n).ok());
    }
    latest = *batch.Commit();
  }
  EXPECT_GT(registry.stats().compactions, 0);
  // After a compaction the snapshot is flat again, and later commits
  // overlay the new base.
  DbHandle flat = registry.Find("hot");
  EXPECT_EQ(flat.db().num_live_facts(), 2 + 12);
  EXPECT_EQ(registry.stats().commits, 4);
}

TEST(DbRegistryV3Test, EngineResolvesNamesAtExecutionTime) {
  DbRegistry registry;
  ResilienceEngine engine;
  DbHandle v1 = registry.Register(ChainDb(), "orders");

  ResilienceRequest request;
  request.regex = "ax*";
  request.db_ref = "orders@latest";
  request.registry = &registry;
  ResilienceResponse r1 = engine.Evaluate(request);
  ASSERT_TRUE(r1.status.ok()) << r1.status;

  // Advance the lineage: @latest re-resolves, @1 stays pinned.
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.RemoveFact(0, 'a', 1).ok());
  ASSERT_TRUE(batch.Commit().ok());
  ResilienceResponse r2 = engine.Evaluate(request);
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_EQ(r2.result.value, 0);  // no 'a' facts left to delete

  request.db_ref = "orders@1";
  ResilienceResponse r3 = engine.Evaluate(request);
  ASSERT_TRUE(r3.status.ok());
  EXPECT_EQ(r3.result.value, r1.result.value);

  request.db_ref = "gone@latest";
  EXPECT_EQ(engine.Evaluate(request).status.code(), StatusCode::kNotFound);
  // An explicit handle wins over db_ref.
  request.db = v1;
  EXPECT_TRUE(engine.Evaluate(request).status.ok());
}

TEST(DbRegistryV3Test, DeltaSnapshotServesQueriesLikeARebuild) {
  DbRegistry registry;
  ResilienceEngine engine;
  DbHandle latest = registry.Register(ChainDb(), "serve");
  DeltaBatch batch = registry.BeginDelta(latest);
  NodeId d = batch.AddNode("d");
  ASSERT_TRUE(batch.AddFact(2, 'b', d).ok());
  ASSERT_TRUE(batch.AddFact(0, 'x', 2).ok());
  latest = *batch.Commit();

  DbHandle rebuilt = registry.Register(latest.db().Compact(), "rebuilt");
  for (const std::string& regex : {"ax*b", "ax*", "ab|bc"}) {
    ResilienceRequest versioned{.regex = regex, .db = latest};
    ResilienceRequest flat{.regex = regex, .db = rebuilt};
    ResilienceResponse a = engine.Evaluate(versioned);
    ResilienceResponse b = engine.Evaluate(flat);
    ASSERT_EQ(a.status.code(), b.status.code()) << regex;
    if (!a.status.ok()) continue;
    EXPECT_EQ(a.result.infinite, b.result.infinite) << regex;
    EXPECT_EQ(a.result.value, b.result.value) << regex;
  }
}

// Regression: Resolve("name@latest") racing Commit must hand out an
// INTERNALLY CONSISTENT (lineage, version) pair — a handle claiming
// version V must carry exactly version V's database and exactly version
// V's label index, never version N's number with N+1's index (or vice
// versa). The committer adds exactly one 'y' fact per commit, so at
// version V the database holds V-1 live 'y' facts; resolvers hammer
// "@latest" and cross-check version number, database scan, and label
// index against each other on every resolution.
TEST(DbRegistryV3Test, ResolveLatestDuringCommitsIsInternallyConsistent) {
  DbRegistry registry;
  GraphDb base;
  base.AddNode();
  DbHandle head = registry.Register(std::move(base), "hot");

  constexpr int kCommits = 200;
  std::atomic<bool> done{false};
  std::atomic<int64_t> torn_handles{0};
  std::atomic<int64_t> resolutions{0};
  std::atomic<int> started{0};  // resolvers past their first pass

  auto resolver = [&] {
    bool first = true;
    while (!done.load(std::memory_order_acquire)) {
      Result<DbHandle> latest = registry.Resolve("hot@latest");
      if (!latest.ok()) {
        torn_handles.fetch_add(1);
      } else {
        const uint32_t version = latest->version();
        const GraphDb& db = latest->db();
        int64_t scanned = 0;
        for (FactId id = 0; id < static_cast<FactId>(db.num_facts()); ++id) {
          if (db.IsLive(id) && db.fact(id).label == 'y') ++scanned;
        }
        const int64_t indexed =
            static_cast<int64_t>(latest->label_index()->Facts('y').size());
        // All three views must describe the same version.
        if (scanned != static_cast<int64_t>(version) - 1 ||
            indexed != scanned) {
          torn_handles.fetch_add(1);
        }
        resolutions.fetch_add(1);
      }
      if (first) {
        first = false;
        started.fetch_add(1, std::memory_order_release);
      }
    }
  };
  std::thread r1(resolver), r2(resolver);
  // Commit only once both resolvers have finished one resolution:
  // otherwise the scheduler may run all the commits before either
  // resolver, and the resolutions > 0 check below would fail.
  while (started.load(std::memory_order_acquire) < 2) {
    std::this_thread::yield();
  }

  for (int i = 0; i < kCommits; ++i) {
    DeltaBatch delta = registry.BeginDelta(head);
    const NodeId fresh = delta.AddNode();
    ASSERT_TRUE(delta.AddFact(0, 'y', fresh).ok());
    Result<DbHandle> committed = delta.Commit();
    ASSERT_TRUE(committed.ok()) << committed.status();
    head = *committed;
  }

  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(torn_handles.load(), 0);
  EXPECT_GT(resolutions.load(), 0);
  Result<DbHandle> final_handle = registry.Resolve("hot@latest");
  ASSERT_TRUE(final_handle.ok());
  EXPECT_EQ(final_handle->version(), 1u + kCommits);
}

}  // namespace
}  // namespace rpqres
