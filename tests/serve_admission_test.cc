// Serve admission test: shed-correctness properties of the router's
// admission control. A shed request must never reach a solver — its
// span tree holds nothing past the admission span and no engine counter
// moves; per-tenant in-flight caps must isolate tenants — a flooding
// tenant's backlog cannot drag a quiet tenant's p99 far from its solo
// baseline, because the flood holds at most its cap of pool slots; and
// every shed must land in the router's slow-query log with the shed
// reason and status attached.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
#include "serve/admission.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "util/rng.h"

namespace rpqres {
namespace {

using serve::AdmissionDecision;
using serve::Router;
using serve::RouterOptions;
using serve::RouterStats;
using serve::ServeRequest;
using serve::ShardedRegistry;

EngineOptions OneThreadEngines() {
  EngineOptions options;
  options.num_threads = 1;
  return options;
}

// A database big enough that one solve takes measurable (but bounded)
// time on any machine.
GraphDb MediumFlowDb(uint64_t seed) {
  Rng rng(seed);
  return LayeredFlowDb(&rng, 8, 10, 10, 8, 0.5);
}

GraphDb TinyDb() {
  GraphDb db;
  const NodeId u = db.AddNode();
  const NodeId mid = db.AddNode();
  const NodeId v = db.AddNode();
  db.AddFact(u, 'a', mid);
  db.AddFact(mid, 'x', mid);
  db.AddFact(mid, 'b', v);
  return db;
}

ServeRequest ReadRequest(std::string tenant, const std::string& db_ref) {
  ServeRequest serve;
  serve.tenant = std::move(tenant);
  serve.request.regex = "ax*b";
  serve.request.db_ref = db_ref;
  return serve;
}

TEST(ServeAdmissionTest, ShedRequestNeverReachesASolver) {
  ShardedRegistry shards(2, OneThreadEngines());
  Router router(&shards);
  shards.Register(MediumFlowDb(5), "flowdb");

  // Every request arrives already dead: deadline in the past.
  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    ServeRequest serve = ReadRequest("late", "flowdb@latest");
    serve.request.options.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    ResilienceResponse response = router.Evaluate(std::move(serve));
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded) << i;
  }
  router.Drain();

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed_deadline_expired, kRequests);
  EXPECT_EQ(stats.admitted, 0);
  // No engine ever saw them: no instance ran, no submit accepted.
  for (int i = 0; i < shards.num_shards(); ++i) {
    EXPECT_EQ(shards.engine(i).stats().instances_run, 0) << "shard " << i;
    EXPECT_EQ(shards.engine(i).stats().submits, 0) << "shard " << i;
  }
  // The span tree of every shed is empty past admission.
  std::vector<obs::SlowQueryRecord> sheds = router.shed_queries();
  ASSERT_EQ(sheds.size(), static_cast<size_t>(kRequests));
  for (const obs::SlowQueryRecord& record : sheds) {
    ASSERT_FALSE(record.spans.empty());
    for (const obs::TraceSpan& span : record.spans) {
      EXPECT_EQ(span.kind, obs::SpanKind::kAdmission);
    }
    EXPECT_EQ(record.status, "deadline_exceeded");
  }
}

TEST(ServeAdmissionTest, TenantCapShedsWithResourceExhausted) {
  RouterOptions options;
  options.admission.max_inflight_per_tenant = 2;
  ShardedRegistry shards(1, OneThreadEngines());
  Router router(&shards, options);
  shards.Register(MediumFlowDb(6), "flowdb");

  constexpr int kBurst = 40;
  std::vector<std::future<ResilienceResponse>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(router.Submit(ReadRequest("greedy", "flowdb@latest")));
  }
  int ok = 0, exhausted = 0;
  for (auto& future : futures) {
    ResilienceResponse response = future.get();
    if (response.status.ok()) {
      ++ok;
    } else if (response.status.code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    }
  }
  router.Drain();
  EXPECT_EQ(ok + exhausted, kBurst);
  // A one-thread shard draining a 40-burst under cap 2 must shed.
  EXPECT_GT(exhausted, 0);
  RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed_tenant_cap, exhausted);
  // Exactly the admitted requests reached the engine.
  EXPECT_EQ(shards.engine(0).stats().instances_run, ok);
  EXPECT_EQ(router.admission().tenant_inflight("greedy"), 0);
}

TEST(ServeAdmissionTest, TenantCapIsolatesQuietTenantLatency) {
  RouterOptions options;
  options.admission.max_inflight_per_tenant = 2;
  options.admission.max_inflight_per_shard = 1 << 20;
  ShardedRegistry shards(1, OneThreadEngines());
  Router router(&shards, options);
  shards.Register(MediumFlowDb(7), "floodtarget");
  shards.Register(TinyDb(), "quietdb");

  constexpr int kQuietRequests = 40;
  auto quiet_pass = [&]() {
    std::vector<double> micros;
    micros.reserve(kQuietRequests);
    for (int i = 0; i < kQuietRequests; ++i) {
      const auto start = std::chrono::steady_clock::now();
      ResilienceResponse response =
          router.Evaluate(ReadRequest("quiet", "quietdb@latest"));
      EXPECT_TRUE(response.status.ok());
      micros.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    }
    std::sort(micros.begin(), micros.end());
    return micros[micros.size() - 2];  // second-largest: ~p97, outlier-proof
  };

  const double solo_p99 = quiet_pass();

  // Flood from another thread: a sustained burst of heavier queries
  // against the same shard, far more than the pool could absorb.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> flood_sheds{0};
  std::thread flooder([&] {
    std::vector<std::future<ResilienceResponse>> backlog;
    while (!stop.load()) {
      backlog.push_back(
          router.Submit(ReadRequest("greedy", "floodtarget@latest")));
      if (backlog.size() >= 64) {
        for (auto& f : backlog) {
          if (f.get().status.code() == StatusCode::kResourceExhausted) {
            flood_sheds.fetch_add(1);
          }
        }
        backlog.clear();
      }
    }
    for (auto& f : backlog) {
      if (f.get().status.code() == StatusCode::kResourceExhausted) {
        flood_sheds.fetch_add(1);
      }
    }
  });

  // Contend only once the cap has engaged: a flooder thread that starts
  // late would otherwise submit nothing during the quiet pass.
  const auto engaged_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (flood_sheds.load() == 0 &&
         std::chrono::steady_clock::now() < engaged_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double contended_p99 = quiet_pass();
  stop.store(true);
  flooder.join();
  router.Drain();

  // The cap must have engaged (otherwise this test proves nothing) ...
  EXPECT_GT(flood_sheds.load(), 0);
  // ... and the quiet tenant's p99 must stay in the neighborhood of its
  // solo baseline: the flood holds at most 2 pool slots, so the quiet
  // request waits for at most a couple of flood solves, never the whole
  // backlog. Generous slack for CI schedulers and sanitizers — without
  // the cap the quiet tenant would sit behind an unbounded queue and
  // blow through this by orders of magnitude.
  EXPECT_LT(contended_p99, solo_p99 * 20.0 + 500000.0)
      << "solo p99 " << solo_p99 << "us vs contended " << contended_p99
      << "us";
}

TEST(ServeAdmissionTest, EveryShedLandsInTheSlowQueryLog) {
  RouterOptions options;
  options.admission.max_inflight_per_tenant = 1;
  options.shed_log_capacity = 4096;
  ShardedRegistry shards(2, OneThreadEngines());
  Router router(&shards, options);
  shards.Register(MediumFlowDb(8), "flowdb");

  std::vector<std::future<ResilienceResponse>> futures;
  for (int i = 0; i < 60; ++i) {
    ServeRequest serve = ReadRequest("mixed", "flowdb@latest");
    if (i % 3 == 0) {
      serve.request.options.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    }
    futures.push_back(router.Submit(std::move(serve)));
  }
  for (auto& future : futures) future.get();
  router.Drain();

  RouterStats stats = router.stats();
  ASSERT_GT(stats.sheds(), 0);
  std::vector<obs::SlowQueryRecord> sheds = router.shed_queries();
  EXPECT_EQ(sheds.size(), static_cast<size_t>(stats.sheds()));
  uint64_t last_sequence = 0;
  for (const obs::SlowQueryRecord& record : sheds) {
    EXPECT_TRUE(record.status == "deadline_exceeded" ||
                record.status == "resource_exhausted")
        << record.status;
    // The shed reason rides in the algorithm slot.
    EXPECT_TRUE(record.algorithm.rfind("shed_", 0) == 0) << record.algorithm;
    EXPECT_GT(record.sequence, last_sequence);
    last_sequence = record.sequence;
    EXPECT_EQ(record.regex, "ax*b");
  }
  // The merged slow-query view contains the sheds too.
  EXPECT_GE(router.slow_queries().size(), sheds.size());
}

}  // namespace
}  // namespace rpqres
