// Engine stress test: thread-count invariance. EvaluateBatch and
// EvaluateDifferential over the same seeded workload must produce
// identical results and aggregate stats under a 1-thread and an 8-thread
// pool — requests share compiled plans (shared_ptr-to-const) and
// database snapshots (DbRegistry handles), stats are atomic counter
// cells, so any divergence is a data race or an order-dependent
// accumulation bug that the existing single-pool parity test cannot see.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "workload/workload.h"

namespace rpqres {
namespace {

using workload::MakeWorkloadInstance;
using workload::WorkloadInstance;

struct SeededBatch {
  // The registry outlives the requests; handles keep snapshots alive
  // either way. (unique_ptr: DbRegistry owns a mutex, so it isn't
  // movable itself.)
  std::unique_ptr<DbRegistry> registry = std::make_unique<DbRegistry>();
  std::vector<ResilienceRequest> queries;
};

SeededBatch BuildBatch(uint64_t base, int count) {
  SeededBatch batch;
  for (uint64_t seed = base; seed < base + static_cast<uint64_t>(count);
       ++seed) {
    Result<WorkloadInstance> instance = MakeWorkloadInstance(seed);
    if (!instance.ok()) continue;
    ResilienceRequest request;
    request.regex = instance->query.regex;
    request.db = batch.registry->Register(std::move(instance->db));
    request.semantics = instance->semantics;
    batch.queries.push_back(std::move(request));
  }
  return batch;
}

EngineOptions WithThreads(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  return options;
}

TEST(EngineStressTest, EvaluateBatchIsThreadCountInvariant) {
  SeededBatch batch = BuildBatch(31000, 60);
  ASSERT_GT(batch.queries.size(), 40u);

  ResilienceEngine serial(WithThreads(1));
  ResilienceEngine parallel(WithThreads(8));
  std::vector<ResilienceResponse> a = serial.EvaluateBatch(batch.queries);
  std::vector<ResilienceResponse> b = parallel.EvaluateBatch(batch.queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    if (!a[i].status.ok() || !b[i].status.ok()) continue;
    EXPECT_EQ(a[i].result.infinite, b[i].result.infinite) << i;
    EXPECT_EQ(a[i].result.value, b[i].result.value) << i;
    EXPECT_EQ(a[i].result.contingency, b[i].result.contingency) << i;
    EXPECT_EQ(a[i].result.algorithm, b[i].result.algorithm) << i;
    EXPECT_EQ(a[i].stats.complexity, b[i].stats.complexity) << i;
    EXPECT_EQ(a[i].stats.rule, b[i].stats.rule) << i;
  }

  // Aggregate counters (everything except wall times) must agree too.
  EngineStats sa = serial.stats();
  EngineStats sb = parallel.stats();
  EXPECT_EQ(sa.instances_run, sb.instances_run);
  EXPECT_EQ(sa.batches_run, sb.batches_run);
  EXPECT_EQ(sa.compilations, sb.compilations);
  EXPECT_EQ(sa.cache_hits, sb.cache_hits);
  EXPECT_EQ(sa.cache_misses, sb.cache_misses);
  EXPECT_EQ(sa.errors, sb.errors);
  EXPECT_EQ(sa.instances_by_algorithm, sb.instances_by_algorithm);
}

TEST(EngineStressTest, EvaluateDifferentialIsThreadCountInvariant) {
  SeededBatch batch = BuildBatch(32000, 40);
  ASSERT_GT(batch.queries.size(), 25u);

  ResilienceEngine serial(WithThreads(1));
  ResilienceEngine parallel(WithThreads(8));
  std::vector<ResilienceResponse> a =
      serial.EvaluateDifferential(batch.queries);
  std::vector<ResilienceResponse> b =
      parallel.EvaluateDifferential(batch.queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].differential.has_value()) << i;
    ASSERT_TRUE(b[i].differential.has_value()) << i;
    EXPECT_EQ(a[i].differential->agree, b[i].differential->agree) << i;
    EXPECT_EQ(a[i].differential->inconclusive,
              b[i].differential->inconclusive)
        << i;
    EXPECT_EQ(a[i].differential->mismatch, b[i].differential->mismatch) << i;
    EXPECT_EQ(a[i].result.value, b[i].result.value) << i;
    EXPECT_EQ(a[i].differential->reference_result.value,
              b[i].differential->reference_result.value)
        << i;
  }
  EngineStats sa = serial.stats();
  EngineStats sb = parallel.stats();
  EXPECT_EQ(sa.differentials_run, sb.differentials_run);
  EXPECT_EQ(sa.differential_mismatches, sb.differential_mismatches);
  EXPECT_EQ(sa.instances_run, sb.instances_run);
  EXPECT_EQ(sa.instances_by_algorithm, sb.instances_by_algorithm);

  // And on a correct build, the seeded workload has no mismatches at all.
  EXPECT_EQ(sa.differential_mismatches, 0);
}

// Registry v3 under concurrency: reader threads resolve and query
// "hot@latest" while the main thread commits deltas. Every response must
// be coherent — a reader sees SOME committed version (snapshots are
// immutable, handles pin them), never a torn state; and with the result
// cache on, cached answers must match the version they were keyed by.
TEST(EngineStressTest, ConcurrentReadersOnLatestDuringCommits) {
  DbRegistry registry;
  EngineOptions options;
  options.num_threads = 4;
  options.result_cache_capacity = 256;
  ResilienceEngine engine(options);

  // A chain of a-facts followed by one b-fact: RES(ax*b) == 1 whenever at
  // least one a->x*->b walk exists; commits toggle extra x-facts so every
  // version stays solvable with a small known answer set.
  GraphDb db;
  NodeId s = db.AddNode("s");
  NodeId m = db.AddNode("m");
  NodeId t = db.AddNode("t");
  db.AddFact(s, 'a', m);
  db.AddFact(m, 'b', t);
  DbHandle latest = registry.Register(std::move(db), "hot");

  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int reader = 0; reader < 4; ++reader) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ResilienceRequest request;
        request.regex = "ax*b";
        request.db_ref = "hot@latest";
        request.registry = &registry;
        ResilienceResponse response = engine.Evaluate(request);
        // Every version keeps the a->...->b walk, so the answer is a
        // finite min cut of 1 on every committed snapshot.
        if (!response.status.ok() || response.result.infinite ||
            response.result.value != 1) {
          ++failures;
        }
        ++reads;
      }
    });
  }

  for (int commit = 0; commit < 50; ++commit) {
    DeltaBatch batch = registry.BeginDelta(latest);
    NodeId fresh = batch.AddNode();
    ASSERT_TRUE(batch.AddFact(1, 'x', fresh).ok());
    if (commit % 2 == 1) {
      // Remove the previous round's x-fact again.
      ASSERT_TRUE(batch.RemoveFact(1, 'x', fresh - 1).ok());
    }
    Result<DbHandle> committed = batch.Commit();
    ASSERT_TRUE(committed.ok()) << committed.status();
    latest = *std::move(committed);
    // Commits outpace cold reads by orders of magnitude; pace them so the
    // readers genuinely interleave with the version churn.
    while (reads.load() < (commit + 1) * 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  stop = true;
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(reads.load(), 100);
  EXPECT_EQ(registry.stats().commits, 50);
  EXPECT_EQ(registry.Find("hot").version(), 51u);
}

// Consistent stats snapshots: stats() taken mid-flight, while a Submit
// barrage is in progress, must satisfy the cross-field invariants on
// EVERY read — errors and instances_run derive from one read of the
// status cells, which requests bump before the algorithm and result-cache
// cells that the view reads first, so a torn snapshot (e.g. errors
// incremented but instances_run not yet) can never be observed. A final
// quiescent read checks exact totals.
TEST(EngineStressTest, StatsSnapshotsAreConsistentUnderConcurrentSubmits) {
  DbRegistry registry;
  GraphDb db;
  NodeId s = db.AddNode("s");
  NodeId m = db.AddNode("m");
  NodeId t = db.AddNode("t");
  db.AddFact(s, 'a', m);
  db.AddFact(m, 'b', t);
  DbHandle handle = registry.Register(std::move(db), "hot");

  EngineOptions options;
  options.num_threads = 4;
  options.result_cache_capacity = 64;
  ResilienceEngine engine(options);

  constexpr int kRequests = 400;
  std::vector<std::future<ResilienceResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ResilienceRequest request;
    request.db = handle;
    switch (i % 3) {
      case 0:
        request.regex = "ax*b";
        break;
      case 1:
        request.regex = "ab";
        break;
      default:
        request.regex = "ab";
        // Every third request is shed by an already-expired deadline.
        request.options.deadline = std::chrono::steady_clock::now() -
                                   std::chrono::milliseconds(1);
        break;
    }
    futures.push_back(engine.Submit(std::move(request)));
  }

  // Sample snapshots while the barrage drains.
  int snapshots_taken = 0;
  while (snapshots_taken < 200) {
    EngineStats snap = engine.stats();
    ++snapshots_taken;
    EXPECT_GE(snap.instances_run, 0);
    EXPECT_LE(snap.instances_run, kRequests);
    EXPECT_LE(snap.deadline_exceeded + snap.cancelled, snap.errors)
        << "disjoint statuses exceed the error roll-up";
    EXPECT_LE(snap.errors, snap.instances_run);
    EXPECT_LE(snap.cache_hits + snap.cache_misses, 2 * kRequests);
    EXPECT_LE(snap.result_cache_hits + snap.result_cache_misses, snap.instances_run)
        << "result-cache probes counted before their instance";
    int64_t by_algorithm = 0;
    for (const auto& [algorithm, count] : snap.instances_by_algorithm) {
      by_algorithm += count;
    }
    EXPECT_LE(by_algorithm, snap.instances_run);
    EXPECT_LE(snap.errors + by_algorithm, snap.instances_run)
        << "an instance counted both as an error and under an algorithm";
  }
  for (std::future<ResilienceResponse>& future : futures) future.get();

  // Quiescent totals: every request accounted for, exactly once.
  EngineStats final_stats = engine.stats();
  EXPECT_EQ(final_stats.instances_run, kRequests);
  EXPECT_EQ(final_stats.submits, kRequests);
  EXPECT_GE(final_stats.deadline_exceeded, kRequests / 3 - 1);
  EXPECT_EQ(final_stats.errors, final_stats.deadline_exceeded + final_stats.cancelled);
  int64_t by_algorithm = 0;
  for (const auto& [algorithm, count] : final_stats.instances_by_algorithm) {
    by_algorithm += count;
  }
  EXPECT_EQ(by_algorithm + final_stats.errors, kRequests);
}

// Repeated batches over one engine: plan-cache hits must not change
// answers (a stale or corrupted cached plan would).
TEST(EngineStressTest, RepeatedBatchesAreStable) {
  SeededBatch batch = BuildBatch(33000, 25);
  ResilienceEngine engine(WithThreads(8));
  std::vector<ResilienceResponse> first = engine.EvaluateBatch(batch.queries);
  for (int round = 0; round < 3; ++round) {
    std::vector<ResilienceResponse> again =
        engine.EvaluateBatch(batch.queries);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i].status, first[i].status) << i;
      EXPECT_EQ(again[i].result.value, first[i].result.value) << i;
      EXPECT_EQ(again[i].result.infinite, first[i].result.infinite) << i;
    }
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches_run, 4);
  EXPECT_GT(stats.cache_hits, 0);
}

}  // namespace
}  // namespace rpqres
