// Serve stress test: N-shard sustained mixed read/commit traffic. A
// committer thread runs BeginDelta/Commit cycles against "lin0@latest"
// on its home shard while the router serves seeded reads across every
// shard; mid-traffic the merged router/engine snapshots must keep their
// cross-field invariants (mirroring engine_stress_test's mid-flight
// checks, but over the MERGED fleet view), and at quiescence the
// accounting must be exact. Commit mutations touch only noise labels,
// so every read of a lineage must return the same resilience value at
// every version it happens to hit — pinned per (lineage, regex,
// semantics) key.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "workload/traffic.h"

namespace rpqres {
namespace {

using serve::Router;
using serve::RouterStats;
using serve::ServeRequest;
using serve::ShardedRegistry;
using workload::TrafficOp;
using workload::TrafficTrace;

constexpr int kShards = 4;
constexpr int kWaves = 10;
constexpr int kReadsPerWave = 100;
constexpr int kCommits = 40;

EngineOptions StressEngineOptions() {
  EngineOptions options;
  options.num_threads = 2;
  options.max_word_length = 8;
  options.result_cache_capacity = 128;  // exercise version-keyed caching
  return options;
}

void CheckMergedInvariants(const Router& router, const char* where) {
  // RouterStats defines submitted as admitted + sheds(), so any snapshot
  // balances exactly.
  RouterStats rs = router.stats();
  EXPECT_EQ(rs.submitted, rs.admitted + rs.sheds()) << where;
  EXPECT_LE(rs.completed, rs.admitted) << where;

  // Each engine's stats snapshot is internally consistent; sums of
  // consistent snapshots keep every inequality.
  EngineStats es = router.engine_stats();
  EXPECT_GE(es.instances_run, 0) << where;
  EXPECT_LE(es.errors, es.instances_run) << where;
  EXPECT_LE(es.deadline_exceeded + es.cancelled, es.errors) << where;
  int64_t by_algorithm = 0;
  for (const auto& [algorithm, count] : es.instances_by_algorithm) {
    EXPECT_GT(count, 0) << where << " " << algorithm;
    by_algorithm += count;
  }
  EXPECT_LE(by_algorithm, es.instances_run) << where;
  EXPECT_LE(es.result_cache_hits + es.result_cache_misses,
            es.instances_run + rs.admitted)
      << where;

  for (int i = 0; i < kShards; ++i) {
    EXPECT_GE(router.admission().shard_inflight(i), 0) << where;
  }
}

TEST(ServeStressTest, SustainedMixedReadCommitTraffic) {
  ShardedRegistry shards(kShards, StressEngineOptions());
  Router router(&shards);

  TrafficTrace trace(20260808, [] {
    workload::TrafficOptions options;
    options.num_lineages = 12;
    options.hot_lineages = 1;
    options.commit_per_mille = 0;  // reads here; commits run concurrently
    return options;
  }());
  for (int i = 0; i < trace.num_lineages(); ++i) {
    shards.Register(trace.MakeDb(i), trace.lineage_name(i));
  }
  const int hot_shard = shards.ShardForRef("lin0@latest");
  DbRegistry& hot_registry = shards.registry(hot_shard);

  // Committer: sustained BeginDelta/Commit against lin0@latest, paced
  // by read progress so commits overlap the whole run.
  std::atomic<int64_t> reads_completed{0};
  std::atomic<bool> stop_committer{false};
  std::atomic<int> commits_done{0};
  std::thread committer([&] {
    Rng rng(0xc0331175eed);
    const int64_t total_reads = int64_t{kWaves} * kReadsPerWave;
    for (int i = 0; i < kCommits && !stop_committer.load(); ++i) {
      TrafficOp op;
      op.kind = TrafficOp::Kind::kCommit;
      op.lineage = 0;
      op.db_ref = "lin0@latest";
      op.op_seed = rng.Next();
      Status status = TrafficTrace::ApplyCommit(op, &hot_registry);
      // A single committer never conflicts; anything non-OK is a bug.
      EXPECT_TRUE(status.ok()) << status.ToString();
      ++commits_done;
      // Pace: spread commits across the read stream.
      const int64_t target = (i + 1) * total_reads / (kCommits + 1);
      while (reads_completed.load() < target && !stop_committer.load()) {
        std::this_thread::yield();
      }
    }
  });

  // Answers per key must not move across versions (noise-only commits).
  std::map<std::tuple<int, std::string, int>, std::pair<bool, int64_t>>
      answers;
  int64_t ok_reads = 0;

  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<TrafficOp> ops = trace.NextOps(kReadsPerWave);
    std::vector<std::pair<TrafficOp, std::future<ResilienceResponse>>>
        inflight;
    inflight.reserve(ops.size());
    for (TrafficOp& op : ops) {
      ASSERT_EQ(op.kind, TrafficOp::Kind::kRead);
      ResilienceRequest request;
      request.regex = op.regex;
      request.db_ref = op.db_ref;
      request.semantics = op.semantics;
      std::future<ResilienceResponse> future = router.Submit(
          {"tenant" + std::to_string(op.tenant), std::move(request)});
      inflight.emplace_back(std::move(op), std::move(future));
    }
    // Mid-traffic: fleet snapshots while this wave is in flight.
    for (int check = 0; check < 5; ++check) {
      CheckMergedInvariants(router, "mid-wave");
      std::this_thread::yield();
    }
    for (auto& [op, future] : inflight) {
      ResilienceResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ++ok_reads;
      reads_completed.fetch_add(1);
      const auto key = std::make_tuple(op.lineage, op.regex,
                                       static_cast<int>(op.semantics));
      const std::pair<bool, int64_t> answer{response.result.infinite,
                                            response.result.value};
      auto [it, inserted] = answers.emplace(key, answer);
      EXPECT_EQ(it->second, answer)
          << "answer moved across versions: " << op.db_ref << " "
          << op.regex;
    }
  }

  stop_committer.store(true);
  committer.join();
  router.Drain();
  CheckMergedInvariants(router, "quiescent");

  // Exact accounting at quiescence.
  RouterStats rs = router.stats();
  EXPECT_EQ(rs.submitted, int64_t{kWaves} * kReadsPerWave);
  EXPECT_EQ(rs.sheds(), 0);
  EXPECT_EQ(rs.completed, rs.admitted);
  EngineStats es = router.engine_stats();
  EXPECT_EQ(es.instances_run, ok_reads);
  EXPECT_EQ(es.errors, 0);
  EXPECT_EQ(es.submits, rs.admitted);
  // Every read did exactly one result-cache probe (all reads are
  // registered-lineage reads with caching enabled).
  EXPECT_EQ(es.result_cache_hits + es.result_cache_misses, ok_reads);
  EXPECT_GT(es.result_cache_hits, 0);

  // The hot lineage really versioned under traffic.
  Result<DbHandle> hot = shards.Resolve("lin0@latest");
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot->version(), 1u + static_cast<uint32_t>(commits_done.load()));

  // Reads spread across every shard.
  for (int i = 0; i < kShards; ++i) {
    EXPECT_GT(shards.engine(i).stats().instances_run, 0) << "shard " << i;
  }
}

// Stats views under concurrent submitters: four threads submit admitted
// reads and expired-deadline sheds while this thread samples the views
// nonstop. Every router.stats() must balance (submitted == admitted +
// sheds()), keep completed <= admitted and never run backwards, and every
// router.engine_stats() must keep the engine's cross-field invariants — a
// sampler on the submitting thread could not see a window between two
// counting points.
TEST(ServeStressTest, StatsBalanceUnderConcurrentSubmitters) {
  ShardedRegistry shards(2, StressEngineOptions());
  Router router(&shards);
  GraphDb db;
  const NodeId u = db.AddNode();
  const NodeId v = db.AddNode();
  db.AddFact(u, 'a', v);
  shards.Register(std::move(db), "tiny");

  constexpr int kSubmitters = 4;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  std::atomic<int> running{kSubmitters};
  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> expired{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<std::future<ResilienceResponse>> futures;
      for (int i = 0; std::chrono::steady_clock::now() < until; ++i) {
        ResilienceRequest request;
        request.regex = "a";
        request.db_ref = "tiny@latest";
        if (i % 3 == 2) {
          request.options.deadline = std::chrono::steady_clock::now() -
                                     std::chrono::milliseconds(1);
          expired.fetch_add(1);
        }
        futures.push_back(router.Submit(
            {"tenant" + std::to_string(t), std::move(request)}));
        submitted.fetch_add(1);
        if (futures.size() == 32) {
          for (auto& future : futures) future.get();
          futures.clear();
        }
      }
      for (auto& future : futures) future.get();
      running.fetch_sub(1);
    });
  }

  int64_t samples = 0;
  int64_t unbalanced = 0;
  int64_t overcompleted = 0;
  int64_t went_backwards = 0;
  int64_t last_submitted = 0;
  int64_t engine_samples = 0;
  int64_t engine_torn = 0;
  while (running.load() > 0) {
    const RouterStats rs = router.stats();
    ++samples;
    if (rs.submitted != rs.admitted + rs.sheds()) ++unbalanced;
    if (rs.completed > rs.admitted) ++overcompleted;
    if (rs.submitted < last_submitted) ++went_backwards;
    last_submitted = rs.submitted;
    if (samples % 16 == 0) {
      const EngineStats es = router.engine_stats();
      ++engine_samples;
      int64_t by_algorithm = 0;
      for (const auto& [algorithm, count] : es.instances_by_algorithm) {
        by_algorithm += count;
      }
      if (es.deadline_exceeded + es.cancelled > es.errors ||
          es.errors + by_algorithm > es.instances_run ||
          es.result_cache_hits + es.result_cache_misses > es.instances_run) {
        ++engine_torn;
      }
    }
    // Leave the submitters room between samples, so the sampler sees
    // them mid-submit rather than starving them.
    for (int spin = 0; spin < 256 && running.load() > 0; ++spin) {
    }
  }
  for (std::thread& submitter : submitters) submitter.join();
  router.Drain();

  EXPECT_GT(samples, 0);
  EXPECT_EQ(unbalanced, 0) << "of " << samples << " samples";
  EXPECT_EQ(overcompleted, 0) << "of " << samples << " samples";
  EXPECT_EQ(went_backwards, 0) << "of " << samples << " samples";
  EXPECT_EQ(engine_torn, 0) << "of " << engine_samples << " samples";
  const RouterStats rs = router.stats();
  EXPECT_EQ(rs.submitted, submitted.load());
  EXPECT_EQ(rs.submitted, rs.admitted + rs.sheds());
  EXPECT_EQ(rs.shed_deadline_expired, expired.load());
  EXPECT_EQ(rs.completed, rs.admitted);
}

}  // namespace
}  // namespace rpqres
