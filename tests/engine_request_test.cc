// Tests for the serving API v2 surface: DbRegistry/DbHandle lifetime,
// the snapshot-index hot path agreeing with a one-shot direct solve, async
// Submit/SubmitBatch futures, and deadline / cooperative-cancellation
// semantics (an adversarial star-language instance must stop with
// DeadlineExceeded promptly, with engine stats staying consistent).

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/resilience.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace rpqres {
namespace {

using std::chrono::steady_clock;

/// An odd a-labeled cycle C_n: the adversarial shape the differential
/// oracle warns about — a star language over a cyclic database. Against
/// the star language (aa)*aa (whose infix-free core {aa} is the paper's
/// NP-hard gadget language) the branch & bound's disjoint-match lower
/// bound is off by one on odd cycles, so proving optimality explodes:
/// n = 41 already needs tens of millions of search nodes (minutes of
/// wall time), which a deadline must cut short.
GraphDb OddACycle(int n) {
  GraphDb db;
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) nodes.push_back(db.AddNode());
  for (int i = 0; i < n; ++i) {
    db.AddFact(nodes[i], 'a', nodes[(i + 1) % n]);
  }
  return db;
}

TEST(DbRegistryTest, RegisterFindUnregister) {
  DbRegistry registry;
  DbHandle h1 = registry.Register(PathDb("ab"), "one");
  DbHandle h2 = registry.Register(PathDb("abc"), "two");
  EXPECT_TRUE(h1.valid());
  EXPECT_NE(h1.id(), h2.id());
  EXPECT_EQ(h1.name(), "one");
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find(h1.id()).id(), h1.id());
  EXPECT_FALSE(registry.Find(9999).valid());

  EXPECT_TRUE(registry.Unregister(h1.id()));
  EXPECT_FALSE(registry.Unregister(h1.id()));
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.stats().registered, 2);
  EXPECT_EQ(registry.stats().unregistered, 1);
}

// Satellite requirement: a handle must outlive both unregistration and
// the registry itself — in-flight requests never race a deregistration.
TEST(DbRegistryTest, HandleOutlivesUnregisterAndRegistry) {
  DbHandle handle;
  {
    DbRegistry registry;
    handle = registry.Register(PathDb("axxb"), "ephemeral");
    ASSERT_TRUE(registry.Unregister(handle.id()));
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_TRUE(handle.valid());
  }  // registry destroyed; the snapshot lives on through the handle

  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.db().num_facts(), 4);
  ASSERT_NE(handle.label_index(), nullptr);

  ResilienceEngine engine;
  ResilienceResponse response = engine.Evaluate(
      {.regex = "ax*b", .db = handle, .semantics = Semantics::kBag});
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_EQ(response.result.value, 1);
}

TEST(DbRegistryTest, LabelIndexMatchesDatabase) {
  Rng rng(77);
  GraphDb db = RandomGraphDb(&rng, 8, 30, {'a', 'b', 'c', 'x'}, 3);
  LabelIndex index(db);
  int64_t total = 0;
  for (char label : index.labels()) {
    for (FactId f : index.Facts(label)) {
      EXPECT_EQ(db.fact(f).label, label);
      ++total;
    }
  }
  EXPECT_EQ(total, db.num_facts());
  EXPECT_TRUE(index.Facts('z').empty());
}

// The engine path (registered handle, the snapshot's index built at
// Register time) and the one-shot direct path (ComputeResilience, which
// builds its own index per call) must agree on values and witnesses
// must verify.
TEST(DbRegistryTest, EnginePathAgreesWithDirectSolve) {
  Rng rng(13);
  DbRegistry registry;
  for (int round = 0; round < 5; ++round) {
    GraphDb db = RandomGraphDb(&rng, 8, 24,
                               {'a', 'b', 'x', 'm', 'n', 'o'}, 4);
    DbHandle registered = registry.Register(db);
    ResilienceEngine engine;
    for (const char* regex : {"ax*b", "ab|bc", "ab"}) {
      SCOPED_TRACE(regex);
      ResilienceResponse indexed = engine.Evaluate(
          {.regex = regex, .db = registered, .semantics = Semantics::kBag});
      Language lang = Language::MustFromRegexString(regex);
      Result<ResilienceResult> direct =
          ComputeResilience(lang, db, Semantics::kBag);
      ASSERT_EQ(indexed.status.ok(), direct.ok());
      if (!indexed.status.ok()) continue;
      EXPECT_EQ(indexed.result.infinite, direct->infinite);
      EXPECT_EQ(indexed.result.value, direct->value);
      EXPECT_EQ(VerifyResilienceResult(lang, db, Semantics::kBag,
                                       indexed.result),
                Status::OK());
    }
  }
}

TEST(SubmitTest, FutureResolvesToEvaluateResult) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("axxb"));
  ResilienceEngine engine;
  ResilienceResponse sync = engine.Evaluate(
      {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});

  std::future<ResilienceResponse> future = engine.Submit(
      {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});
  ResilienceResponse async = future.get();
  ASSERT_TRUE(async.status.ok()) << async.status;
  EXPECT_EQ(async.result.value, sync.result.value);
  EXPECT_EQ(async.result.contingency, sync.result.contingency);
  EXPECT_GE(engine.stats().submits, 1);
}

TEST(SubmitTest, SubmitBatchResolvesAllFutures) {
  Rng rng(3);
  DbRegistry registry;
  DbHandle db1 = registry.Register(PathDb("axxb"));
  DbHandle db2 = registry.Register(
      RandomGraphDb(&rng, 6, 14, {'a', 'b', 'x'}, 2));
  std::vector<ResilienceRequest> requests = {
      {.regex = "ax*b", .db = db1, .semantics = Semantics::kBag},
      {.regex = "ab", .db = db2},
      {.regex = "(((", .db = db2},  // parse error must surface per-future
  };
  ResilienceEngine engine;
  std::vector<std::future<ResilienceResponse>> futures =
      engine.SubmitBatch(std::move(requests));
  ASSERT_EQ(futures.size(), 3u);
  EXPECT_TRUE(futures[0].get().status.ok());
  EXPECT_TRUE(futures[1].get().status.ok());
  EXPECT_EQ(futures[2].get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.stats().submits, 3);
}

// The headline deadline requirement: an adversarial star-language
// instance (star regex, cyclic database, forced onto the exact branch &
// bound) stops with DeadlineExceeded within its budget window instead of
// running to completion — the full search would need minutes, the
// deadline is 100ms, and we allow generous slack for sanitizer builds.
TEST(DeadlineTest, ExactSolverStopsAtTheDeadline) {
  DbRegistry registry;
  DbHandle db = registry.Register(OddACycle(41), "adversarial");
  ResilienceEngine engine;

  auto start = steady_clock::now();
  ResilienceResponse response = engine.Evaluate(
      {.regex = "(aa)*aa", .db = db,
       .options = {.method = ResilienceMethod::kExact,
                   .deadline = start + std::chrono::milliseconds(100)}});
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - start)
          .count();

  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
      << response.status;
  EXPECT_LT(elapsed_ms, 10'000) << "deadline ignored: ran to completion?";
  EXPECT_GE(elapsed_ms, 90) << "gave up before the deadline";

  // Stats stay consistent: the stopped instance is recorded everywhere.
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.instances_run, 1);
  EXPECT_EQ(stats.errors, 1);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.cancelled, 0);
}

// Same shape through the kAuto plan (NP-hard regex → exact fallback).
TEST(DeadlineTest, AutoPlanHonoursTheDeadline) {
  DbRegistry registry;
  DbHandle db = registry.Register(OddACycle(41));
  ResilienceEngine engine;
  ResilienceResponse response = engine.Evaluate(
      {.regex = "(aa)*aa", .db = db,
       .options = {.deadline =
                       steady_clock::now() + std::chrono::milliseconds(80)}});
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, ExpiredDeadlineFailsWithoutSolving) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("ab"));
  ResilienceEngine engine;
  ResilienceResponse response = engine.Evaluate(
      {.regex = "ab", .db = db,
       .options = {.deadline =
                       steady_clock::now() - std::chrono::seconds(1)}});
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.stats.solve_micros, 0);
  EXPECT_EQ(engine.stats().deadline_exceeded, 1);
}

// A deadline on the differential path: both sides stop, the pair judges
// inconclusive (no refutable answer), never a mismatch.
TEST(DeadlineTest, DifferentialPairIsInconclusiveNotMismatch) {
  DbRegistry registry;
  DbHandle db = registry.Register(OddACycle(41));
  std::vector<ResilienceRequest> requests = {
      {.regex = "(aa)*aa", .db = db,
       .options = {.deadline =
                       steady_clock::now() + std::chrono::milliseconds(60)}}};
  ResilienceEngine engine;
  std::vector<ResilienceResponse> responses =
      engine.EvaluateDifferential(requests);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].differential.has_value());
  EXPECT_TRUE(responses[0].differential->inconclusive);
  EXPECT_FALSE(responses[0].differential->agree);
  EXPECT_TRUE(responses[0].differential->mismatch.empty());
  EXPECT_EQ(engine.stats().differential_mismatches, 0);
}

TEST(CancelTest, PreCancelledTokenFailsImmediately) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("ab"));
  auto token = std::make_shared<CancelToken>();
  token->RequestCancel();
  ResilienceEngine engine;
  ResilienceResponse response =
      engine.Evaluate({.regex = "ab", .db = db, .options = {.cancel = token}});
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(engine.stats().cancelled, 1);
}

// Cooperative mid-flight cancellation: submit the adversarial instance
// asynchronously (no deadline, huge budget), cancel from the caller
// thread, and the branch & bound must notice and stop.
// Destroying the engine with Submit tasks still queued must be safe: the
// pool drains them during destruction, and everything they touch (plan
// cache, stats) must still be alive. A wrong member order makes this a
// use-after-destruction (caught under ASan).
TEST(SubmitTest, EngineDestructionDrainsPendingSubmits) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("axxb"));
  std::vector<std::future<ResilienceResponse>> futures;
  {
    EngineOptions options;
    options.num_threads = 1;  // force a backlog on one worker
    ResilienceEngine engine(options);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(engine.Submit(
          {.regex = "ax*b", .db = db, .semantics = Semantics::kBag}));
    }
  }  // ~ResilienceEngine drains the queue
  for (auto& future : futures) {
    ResilienceResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    EXPECT_EQ(response.result.value, 1);
  }
}

TEST(CancelTest, MidFlightCancellationStopsTheSearch) {
  DbRegistry registry;
  DbHandle db = registry.Register(OddACycle(41));
  auto token = std::make_shared<CancelToken>();
  ResilienceEngine engine;
  auto start = steady_clock::now();
  std::future<ResilienceResponse> future = engine.Submit(
      {.regex = "(aa)*aa", .db = db, .options = {.cancel = token}});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token->RequestCancel();
  ResilienceResponse response = future.get();
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - start)
          .count();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled) << response.status;
  EXPECT_LT(elapsed_ms, 10'000);
  EXPECT_EQ(engine.stats().cancelled, 1);
}

}  // namespace
}  // namespace rpqres
