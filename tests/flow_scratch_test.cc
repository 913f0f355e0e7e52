// Scratch-reuse tests for the zero-copy flow core: after a warm-up solve,
// repeated solves through a SolverScratch must neither grow any scratch
// buffer nor allocate on the heap inside the flow path. Heap activity is
// counted by overriding global operator new in this binary (kept in its
// own test target so the override affects nothing else); the flow-path
// assertion brackets the solver call, whose only remaining allocations
// are the returned ResilienceResult's own members.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>
#include <utility>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "flow/solver_scratch.h"
#include "graphdb/generators.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "lang/ro_enfa.h"
#include "obs/trace.h"
#include "resilience/bcl_resilience.h"
#include "resilience/local_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace {

std::atomic<long long> g_allocations{0};

}  // namespace

// The full replaceable-allocation set must be overridden together —
// otherwise (e.g.) a nothrow new from the default set paired with our
// sized delete trips ASan's alloc-dealloc-mismatch check.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rpqres {
namespace {

TEST(SolverScratchTest, LocalSolveReusesBuffersAndStopsAllocating) {
  Rng rng(1234);
  GraphDb db = LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50);
  LabelIndex index(db);
  Language lang = Language::MustFromRegexString("ax*b");
  Enfa ro = BuildRoEnfa(lang).ValueOrDie();
  RoProductTables tables = BuildRoProductTables(ro).ValueOrDie();

  SolverScratch scratch;
  ResilienceResult first =
      SolveLocalResilienceWithTables(tables, db, Semantics::kBag, &index,
                                     &scratch);
  ASSERT_FALSE(first.infinite);
  const size_t warm_bytes = scratch.total_capacity_bytes();
  ASSERT_GT(warm_bytes, 0u);

  for (int round = 0; round < 20; ++round) {
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResult again = SolveLocalResilienceWithTables(
        tables, db, Semantics::kBag, &index, &scratch);
    long long solver_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(again.value, first.value);
    EXPECT_EQ(again.contingency, first.contingency);
    // Steady state: the scratch never grows...
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
    // ...and the only heap activity is the returned result itself (its
    // contingency vector and algorithm string — NOT proportional to the
    // database or network size).
    EXPECT_LE(solver_allocations, 4) << "round " << round;
  }
}

TEST(SolverScratchTest, BclSolveReusesBuffers) {
  Rng rng(99);
  GraphDb db = WordSoupDb(&rng, {"ab", "bc"}, 16, {'a', 'b', 'c'}, 32, 10);
  LabelIndex index(db);
  Language lang = Language::MustFromRegexString("ab|bc");

  const ResilienceOptions bcl{.method = ResilienceMethod::kBclFlow};

  SolverScratch scratch;
  Result<ResilienceResult> first =
      ComputeResilience(lang, db, Semantics::kBag, bcl, &index, &scratch);
  ASSERT_TRUE(first.ok()) << first.status();
  const size_t warm_bytes = scratch.total_capacity_bytes();

  for (int round = 0; round < 10; ++round) {
    Result<ResilienceResult> again =
        ComputeResilience(lang, db, Semantics::kBag, bcl, &index, &scratch);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->value, first->value);
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
  }
}

// A planned BCL or one-dangling solve reads only its plan's tables and
// the database's index: once warm, it allocates its result (contingency
// vector, algorithm string) and nothing that grows with the language or
// the database.
void ExpectPlannedSolveAllocatesOnlyItsResult(const char* regex,
                                              ResilienceMethod method) {
  SCOPED_TRACE(regex);
  Rng rng(31);
  GraphDb db = RandomGraphDb(&rng, 50, 150, {'a', 'b', 'c', 'e'}, 3);
  LabelIndex index(db);
  Result<ResiliencePlan> plan =
      PlanResilience(Language::MustFromRegexString(regex));
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->method, method);

  SolverScratch scratch;
  Result<ResilienceResult> first = ComputeResilienceWithPlan(
      *plan, db, Semantics::kBag, {}, &index, &scratch);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->value, 0);
  const size_t warm_bytes = scratch.total_capacity_bytes();

  for (int round = 0; round < 10; ++round) {
    long long before = g_allocations.load(std::memory_order_relaxed);
    Result<ResilienceResult> again = ComputeResilienceWithPlan(
        *plan, db, Semantics::kBag, {}, &index, &scratch);
    long long solver_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->value, first->value);
    EXPECT_EQ(again->contingency, first->contingency);
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
    EXPECT_LE(solver_allocations, 16) << "round " << round;
  }
}

TEST(SolverScratchTest, PlannedBclSolveAllocatesOnlyItsResult) {
  ExpectPlannedSolveAllocatesOnlyItsResult("ab|bc",
                                           ResilienceMethod::kBclFlow);
}

TEST(SolverScratchTest, PlannedOneDanglingSolveAllocatesOnlyItsResult) {
  ExpectPlannedSolveAllocatesOnlyItsResult("abc|be",
                                           ResilienceMethod::kOneDanglingFlow);
}

// End-to-end: the engine's per-thread scratch reaches a steady state
// where repeated identical requests stop growing it, for each flow
// solver. Single-threaded so every request lands on the same worker
// scratch.
TEST(SolverScratchTest, EngineThreadScratchReachesSteadyState) {
  Rng rng(7);
  DbRegistry registry;
  DbHandle layered =
      registry.Register(LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50));
  DbHandle random =
      registry.Register(RandomGraphDb(&rng, 50, 150, {'a', 'b', 'c', 'e'}, 3));
  EngineOptions options;
  options.num_threads = 1;
  ResilienceEngine engine(options);
  for (const auto& [regex, db] : {std::pair{"ax*b", layered},
                                  std::pair{"ab|bc", random},
                                  std::pair{"abc|be", random}}) {
    SCOPED_TRACE(regex);
    ResilienceRequest request{
        .regex = regex, .db = db, .semantics = Semantics::kBag};

    ResilienceResponse first = engine.Evaluate(request);
    ASSERT_TRUE(first.status.ok()) << first.status;
    if (std::string_view(regex) == "ax*b") {
      EXPECT_GT(first.result.product_vertices_pruned, 0);
    }
    EXPECT_GT(first.result.value, 0);
    // Warm up, then bound the per-request allocation count: response
    // strings and result vectors only, never O(network) buffers.
    for (int i = 0; i < 3; ++i) engine.Evaluate(request);
    for (int round = 0; round < 10; ++round) {
      long long before = g_allocations.load(std::memory_order_relaxed);
      ResilienceResponse again = engine.Evaluate(request);
      long long request_allocations =
          g_allocations.load(std::memory_order_relaxed) - before;
      ASSERT_TRUE(again.status.ok());
      EXPECT_EQ(again.result.value, first.result.value);
      EXPECT_LE(request_allocations, 24) << "round " << round;
    }
  }
}

// Observability on the hot path: recording trace spans through the flow
// solver must not add a single heap allocation — the TraceContext is
// fixed-size and span recording is two clock reads plus array stores.
TEST(SolverScratchTest, TracedLocalSolveStaysAllocationFree) {
  Rng rng(1234);
  GraphDb db = LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50);
  LabelIndex index(db);
  Language lang = Language::MustFromRegexString("ax*b");
  Enfa ro = BuildRoEnfa(lang).ValueOrDie();
  RoProductTables tables = BuildRoProductTables(ro).ValueOrDie();

  SolverScratch scratch;
  ResilienceResult first =
      SolveLocalResilienceWithTables(tables, db, Semantics::kBag, &index,
                                     &scratch);
  const size_t warm_bytes = scratch.total_capacity_bytes();

  for (int round = 0; round < 10; ++round) {
    obs::TraceContext trace;  // stack-allocated span sink
    scratch.trace = &trace;
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResult again = SolveLocalResilienceWithTables(
        tables, db, Semantics::kBag, &index, &scratch);
    long long solver_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    scratch.trace = nullptr;
    EXPECT_EQ(again.value, first.value);
    EXPECT_EQ(scratch.total_capacity_bytes(), warm_bytes)
        << "round " << round << " grew a scratch buffer";
    // Same bound as the untraced solve: spans cost no allocations.
    EXPECT_LE(solver_allocations, 4) << "round " << round;
    // And the spans actually landed: prune, build, Dinic, cut at least.
    EXPECT_GE(trace.size(), 4) << "round " << round;
    EXPECT_EQ(trace.dropped(), 0);
  }
}

// End-to-end with tracing explicitly ON and a caller-attached sink: the
// per-request allocation bound must hold unchanged (metric label lookups
// are allocation-free after warm-up, the span sink is caller stack).
TEST(SolverScratchTest, EngineSteadyStateHoldsWithTracingOn) {
  Rng rng(7);
  DbRegistry registry;
  DbHandle db = registry.Register(LayeredFlowDb(&rng, 4, 8, 6, 4, 0.4, 50));
  EngineOptions options;
  options.num_threads = 1;
  options.enable_tracing = true;
  ResilienceEngine engine(options);
  ResilienceRequest request{
      .regex = "ax*b", .db = db, .semantics = Semantics::kBag};

  ResilienceResponse first = engine.Evaluate(request);
  ASSERT_TRUE(first.status.ok()) << first.status;
  for (int i = 0; i < 3; ++i) engine.Evaluate(request);  // warm-up

  for (int round = 0; round < 10; ++round) {
    obs::TraceContext trace;
    request.options.trace = &trace;
    long long before = g_allocations.load(std::memory_order_relaxed);
    ResilienceResponse again = engine.Evaluate(request);
    long long request_allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    ASSERT_TRUE(again.status.ok());
    EXPECT_EQ(again.result.value, first.result.value);
    EXPECT_LE(request_allocations, 24) << "round " << round;
    EXPECT_GT(trace.size(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace rpqres
