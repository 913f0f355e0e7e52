// The version-keyed ResultCache: hits only on identical
// (query, lineage, version, semantics, endpoints) keys, answers preserved
// bit-for-bit, counters visible through EngineStats, forced-method and
// unversioned requests bypassing, and LRU eviction / invalidation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"

namespace rpqres {
namespace {

GraphDb LayerDb() {
  GraphDb db;
  NodeId s = db.AddNode("s");
  NodeId m1 = db.AddNode("m1");
  NodeId m2 = db.AddNode("m2");
  NodeId t = db.AddNode("t");
  db.AddFact(s, 'a', m1);
  db.AddFact(m1, 'x', m2, 2);
  db.AddFact(m2, 'b', t);
  db.AddFact(s, 'a', m2);
  return db;
}

EngineOptions WithCache(size_t capacity) {
  EngineOptions options;
  options.result_cache_capacity = capacity;
  options.num_threads = 2;
  return options;
}

TEST(ResultCacheTest, RepeatRequestsHitAndPreserveAnswers) {
  DbRegistry registry;
  ResilienceEngine engine(WithCache(64));
  DbHandle db = registry.Register(LayerDb(), "hot");

  ResilienceRequest request{.regex = "ax*b", .db = db};
  ResilienceResponse cold = engine.Evaluate(request);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.stats.result_cache_hit);

  ResilienceResponse warm = engine.Evaluate(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.stats.result_cache_hit);
  EXPECT_EQ(warm.result.value, cold.result.value);
  EXPECT_EQ(warm.result.infinite, cold.result.infinite);
  EXPECT_EQ(warm.result.contingency, cold.result.contingency);
  EXPECT_EQ(warm.result.algorithm, cold.result.algorithm);

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.result_cache_hits, 1);
  EXPECT_EQ(stats.result_cache_misses, 1);
  EXPECT_EQ(engine.result_cache_view().size, 1u);
}

TEST(ResultCacheTest, KeysSeparateVersionsSemanticsAndEndpoints) {
  DbRegistry registry;
  ResilienceEngine engine(WithCache(64));
  DbHandle v1 = registry.Register(LayerDb(), "keyed");
  DeltaBatch batch = registry.BeginDelta(v1);
  ASSERT_TRUE(batch.RemoveFact(2, 'b', 3).ok());  // kills every ax*b walk
  DbHandle v2 = *batch.Commit();

  ResilienceResponse r1 = engine.Evaluate({.regex = "ax*b", .db = v1});
  ResilienceResponse r2 = engine.Evaluate({.regex = "ax*b", .db = v2});
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_FALSE(r2.stats.result_cache_hit);  // different version, own entry
  EXPECT_NE(r1.result.value, r2.result.value);
  // Each version hits its own entry on repeat, with its own answer.
  EXPECT_EQ(engine.Evaluate({.regex = "ax*b", .db = v1}).result.value,
            r1.result.value);
  ResilienceResponse r2_again = engine.Evaluate({.regex = "ax*b", .db = v2});
  EXPECT_TRUE(r2_again.stats.result_cache_hit);
  EXPECT_EQ(r2_again.result.value, r2.result.value);

  // Bag vs set are distinct keys.
  ResilienceResponse bag = engine.Evaluate(
      {.regex = "ax*b", .db = v1, .semantics = Semantics::kBag});
  EXPECT_FALSE(bag.stats.result_cache_hit);

  // Fixed endpoints are part of the key.
  ResilienceResponse pinned = engine.Evaluate(
      {.regex = "ax*b", .db = v1, .source = 0, .target = 3});
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_FALSE(pinned.stats.result_cache_hit);
  ResilienceResponse pinned_again = engine.Evaluate(
      {.regex = "ax*b", .db = v1, .source = 0, .target = 3});
  EXPECT_TRUE(pinned_again.stats.result_cache_hit);
  EXPECT_EQ(pinned_again.result.value, pinned.result.value);
}

TEST(ResultCacheTest, ForcedMethodAndDisabledCacheBypass) {
  DbRegistry registry;
  DbHandle db = registry.Register(LayerDb());

  // Forced-method requests never read or write the cache.
  ResilienceEngine cached(WithCache(64));
  ResilienceResponse warmup = cached.Evaluate({.regex = "ax*b", .db = db});
  ASSERT_TRUE(warmup.status.ok());
  ResilienceResponse forced = cached.Evaluate(
      {.regex = "ax*b",
       .db = db,
       .options = {.method = ResilienceMethod::kExact}});
  ASSERT_TRUE(forced.status.ok());
  EXPECT_FALSE(forced.stats.result_cache_hit);
  EXPECT_EQ(cached.stats().result_cache_hits, 0);

  // Capacity 0 (the default): no cache interaction at all.
  ResilienceEngine uncached;
  uncached.Evaluate({.regex = "ax*b", .db = db});
  ResilienceResponse repeat = uncached.Evaluate({.regex = "ax*b", .db = db});
  EXPECT_FALSE(repeat.stats.result_cache_hit);
  EngineStats stats = uncached.stats();
  EXPECT_EQ(stats.result_cache_hits, 0);
  EXPECT_EQ(stats.result_cache_misses, 0);
}

TEST(ResultCacheTest, EvictionAndInvalidation) {
  DbRegistry registry;
  ResilienceEngine engine(WithCache(2));
  DbHandle db1 = registry.Register(LayerDb(), "one");
  DbHandle db2 = registry.Register(LayerDb(), "two");
  DbHandle db3 = registry.Register(LayerDb(), "three");

  engine.Evaluate({.regex = "ax*b", .db = db1});
  engine.Evaluate({.regex = "ax*b", .db = db2});
  engine.Evaluate({.regex = "ax*b", .db = db3});  // evicts db1's entry
  EXPECT_EQ(engine.stats().result_cache_evictions, 1);
  ResilienceResponse miss = engine.Evaluate({.regex = "ax*b", .db = db1});
  EXPECT_FALSE(miss.stats.result_cache_hit);

  // Invalidation by lineage.
  EXPECT_EQ(engine.InvalidateResults(db1.lineage()), 1);
  EXPECT_EQ(engine.stats().result_cache_invalidations, 1);
  EXPECT_EQ(engine.InvalidateResults(db1.lineage()), 0);
}

// The byte budget: witness sets dominate entry footprint, so a cache
// bounded at a few entries' worth of bytes must evict LRU-first once the
// accounted footprint crosses the budget, even with entry headroom left.
TEST(ResultCacheTest, ByteBudgetEvictsWhenWitnessBytesAccumulate) {
  DbRegistry registry;
  // Size the budget from a real entry's accounted footprint so the test
  // tracks the accounting instead of hard-coding sizeof sums.
  ResilienceEngine probe(WithCache(64));
  DbHandle probe_db = registry.Register(LayerDb(), "probe");
  ASSERT_TRUE(probe.Evaluate({.regex = "ax*b", .db = probe_db}).status.ok());
  const size_t one_entry_bytes = probe.result_cache_view().bytes;
  ASSERT_GT(one_entry_bytes, 0u);

  EngineOptions options = WithCache(64);  // entry bound far away
  options.result_cache_max_bytes = one_entry_bytes * 2;
  ResilienceEngine engine(options);
  std::vector<DbHandle> dbs;
  for (int i = 0; i < 4; ++i) {
    dbs.push_back(registry.Register(LayerDb(), "db" + std::to_string(i)));
  }
  for (const DbHandle& db : dbs) {
    ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  }

  ResultCacheView view = engine.result_cache_view();
  EXPECT_EQ(view.max_bytes, one_entry_bytes * 2);
  EXPECT_LE(view.bytes, view.max_bytes);
  EXPECT_LT(view.size, 4u) << "byte budget never evicted";
  EXPECT_GT(engine.stats().result_cache_evictions, 0);

  // Most-recently-inserted entries survive; the oldest were evicted.
  ResilienceResponse newest = engine.Evaluate({.regex = "ax*b", .db = dbs[3]});
  EXPECT_TRUE(newest.stats.result_cache_hit);
  ResilienceResponse oldest = engine.Evaluate({.regex = "ax*b", .db = dbs[0]});
  EXPECT_FALSE(oldest.stats.result_cache_hit);
}

// A single over-budget entry is still admitted (the cache never thrashes
// to empty), and bytes track insert/evict/invalidate transitions.
TEST(ResultCacheTest, ByteAccountingTracksLifecycle) {
  DbRegistry registry;
  EngineOptions options = WithCache(64);
  options.result_cache_max_bytes = 1;  // less than any real entry
  ResilienceEngine engine(options);
  DbHandle db = registry.Register(LayerDb(), "hot");

  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());
  ResultCacheView view = engine.result_cache_view();
  EXPECT_EQ(view.size, 1u);  // admitted despite busting the budget
  EXPECT_GT(view.bytes, 1u);

  // The one oversized resident is still a usable cache entry.
  EXPECT_TRUE(
      engine.Evaluate({.regex = "ax*b", .db = db}).stats.result_cache_hit);

  // A second entry pushes past the budget: the older one goes.
  DbHandle other = registry.Register(LayerDb(), "cold");
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = other}).status.ok());
  EXPECT_EQ(engine.result_cache_view().size, 1u);

  // Invalidation returns the bytes.
  EXPECT_EQ(engine.InvalidateResults(other.lineage()), 1);
  EXPECT_EQ(engine.result_cache_view().bytes, 0u);
  EXPECT_EQ(engine.result_cache_view().size, 0u);
}

TEST(ResultCacheTest, DifferentialPrimaryMayComeFromCache) {
  DbRegistry registry;
  ResilienceEngine engine(WithCache(64));
  DbHandle db = registry.Register(LayerDb(), "diff");
  ASSERT_TRUE(engine.Evaluate({.regex = "ax*b", .db = db}).status.ok());

  std::vector<ResilienceRequest> requests = {{.regex = "ax*b", .db = db}};
  std::vector<ResilienceResponse> judged =
      engine.EvaluateDifferential(requests);
  ASSERT_TRUE(judged[0].status.ok());
  EXPECT_TRUE(judged[0].stats.result_cache_hit);
  ASSERT_TRUE(judged[0].differential.has_value());
  // The reference side still solves independently and agrees.
  EXPECT_TRUE(judged[0].differential->agree);
  EXPECT_EQ(engine.stats().differential_mismatches, 0);
}

}  // namespace
}  // namespace rpqres
