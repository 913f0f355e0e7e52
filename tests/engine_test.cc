// Tests for the compiled-query resilience engine: plan-cache hit/miss
// semantics and eviction, cached-compile speedup, batch results matching
// per-call ComputeResilience, thread-pool determinism of values,
// per-request option overrides, fixed-endpoint requests, the plan API
// underneath (PlanResilience / ComputeResilienceWithPlan), and the
// missing-database regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/neutral_letter.h"
#include "language_sweep.h"
#include "resilience/local_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

double MicrosOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(PlanCacheTest, MissThenHitReturnsSamePlan) {
  ResilienceEngine engine;
  auto first = engine.Compile("ax*b", Semantics::kBag);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = engine.Compile("ax*b", Semantics::kBag);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first->get(), second->get()) << "hit must return the same plan";

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.compilations, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 1);
}

TEST(PlanCacheTest, SemanticsIsPartOfTheKey) {
  ResilienceEngine engine;
  auto bag = engine.Compile("ax*b", Semantics::kBag);
  auto set = engine.Compile("ax*b", Semantics::kSet);
  ASSERT_TRUE(bag.ok() && set.ok());
  EXPECT_NE(bag->get(), set->get());
  EXPECT_EQ(engine.stats().compilations, 2);
}

TEST(PlanCacheTest, LruEvictionVisibleThroughTheView) {
  EngineOptions options;
  options.plan_cache_capacity = 2;
  ResilienceEngine engine(options);
  ASSERT_TRUE(engine.Compile("ab", Semantics::kSet).ok());
  ASSERT_TRUE(engine.Compile("bc", Semantics::kSet).ok());
  // Touch "ab" so "bc" is the LRU entry, then insert a third plan.
  ASSERT_TRUE(engine.Compile("ab", Semantics::kSet).ok());
  ASSERT_TRUE(engine.Compile("cd", Semantics::kSet).ok());

  PlanCacheView view = engine.plan_cache_view();
  EXPECT_EQ(view.capacity, 2u);
  EXPECT_EQ(view.size, 2u);
  EXPECT_EQ(engine.stats().cache_evictions, 1);
  // "ab" survived, "bc" was evicted.
  ASSERT_TRUE(engine.Compile("ab", Semantics::kSet).ok());
  EXPECT_EQ(engine.stats().compilations, 3);
  ASSERT_TRUE(engine.Compile("bc", Semantics::kSet).ok());
  EXPECT_EQ(engine.stats().compilations, 4);
}

TEST(PlanCacheTest, CachedCompileIsMeasurablyFasterThanFirst) {
  // The acceptance check of the engine's raison d'être: the second
  // compilation of the same regex is a cache lookup, orders of magnitude
  // below a full parse + determinize + classify + plan. "ab|bc|ca" walks
  // the whole classification pipeline before landing NP-hard.
  ResilienceEngine engine;
  double cold_micros = MicrosOf([&engine] {
    ASSERT_TRUE(engine.Compile("ab|bc|ca", Semantics::kSet).ok());
  });
  double cached_min_micros = cold_micros;
  for (int i = 0; i < 64; ++i) {
    cached_min_micros = std::min(cached_min_micros, MicrosOf([&engine] {
      ASSERT_TRUE(engine.Compile("ab|bc|ca", Semantics::kSet).ok());
    }));
  }
  EXPECT_LT(2 * cached_min_micros, cold_micros)
      << "cached compile (" << cached_min_micros
      << "us) not measurably faster than cold compile (" << cold_micros
      << "us)";
  EXPECT_EQ(engine.stats().compilations, 1);
  EXPECT_EQ(engine.stats().cache_hits, 64);
}

// The core workload matrix reused by the batch tests: one query per
// dispatch path (local, BCL, one-dangling, exact fallback), every query
// against every registered database.
struct Workload {
  std::unique_ptr<DbRegistry> registry = std::make_unique<DbRegistry>();
  std::vector<std::string> regexes;
  std::vector<DbHandle> dbs;
  std::vector<ResilienceRequest> requests;  // all (regex, db) pairs, bag
};

Workload MakeWorkload() {
  Workload w;
  w.regexes = {"ax*b", "ab|bc", "abc|be", "ab|bc|ca"};
  Rng rng(7);
  w.dbs.push_back(w.registry->Register(LayeredFlowDb(&rng, 3, 3, 4, 3, 0.5, 5)));
  w.dbs.push_back(w.registry->Register(WordSoupDb(
      &rng, {"ab", "bc", "abc", "be"}, 6, {'a', 'b', 'c', 'e', 'x'}, 10, 4)));
  w.dbs.push_back(w.registry->Register(
      RandomGraphDb(&rng, 7, 16, {'a', 'b', 'c', 'e', 'x'}, 3)));
  for (const std::string& regex : w.regexes) {
    for (const DbHandle& db : w.dbs) {
      ResilienceRequest request;
      request.regex = regex;
      request.db = db;
      request.semantics = Semantics::kBag;
      w.requests.push_back(std::move(request));
    }
  }
  return w;
}

TEST(EngineBatchTest, BatchResultsMatchPerCallComputeResilience) {
  Workload w = MakeWorkload();
  ResilienceEngine engine;
  std::vector<ResilienceResponse> responses = engine.EvaluateBatch(w.requests);
  ASSERT_EQ(responses.size(), w.requests.size());

  for (size_t i = 0; i < w.requests.size(); ++i) {
    const ResilienceRequest& request = w.requests[i];
    SCOPED_TRACE(request.regex + " on db " + std::to_string(i));
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status;

    Language lang = Language::MustFromRegexString(request.regex);
    Result<ResilienceResult> direct =
        ComputeResilience(lang, request.db.db(), request.semantics);
    ASSERT_TRUE(direct.ok()) << direct.status();
    EXPECT_EQ(responses[i].result.infinite, direct->infinite);
    EXPECT_EQ(responses[i].result.value, direct->value);
    // The batch witness must independently verify against the database.
    EXPECT_EQ(VerifyResilienceResult(lang, request.db.db(), request.semantics,
                                     responses[i].result),
              Status::OK());
  }

  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.instances_run,
            static_cast<int64_t>(w.requests.size()));
  EXPECT_EQ(stats.compilations,
            static_cast<int64_t>(w.regexes.size()));
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.batches_run, 1);
}

TEST(EngineBatchTest, ValuesAreDeterministicAcrossRunsAndThreadCounts) {
  Workload w = MakeWorkload();

  EngineOptions parallel_options;
  parallel_options.num_threads = 4;
  ResilienceEngine parallel_engine(parallel_options);
  std::vector<ResilienceResponse> run1 =
      parallel_engine.EvaluateBatch(w.requests);
  std::vector<ResilienceResponse> run2 =
      parallel_engine.EvaluateBatch(w.requests);

  EngineOptions serial_options;
  serial_options.num_threads = 1;
  ResilienceEngine serial_engine(serial_options);
  std::vector<ResilienceResponse> serial =
      serial_engine.EvaluateBatch(w.requests);

  ASSERT_EQ(run1.size(), w.requests.size());
  for (size_t i = 0; i < run1.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    ASSERT_TRUE(run1[i].status.ok());
    EXPECT_EQ(run1[i].result.value, run2[i].result.value);
    EXPECT_EQ(run1[i].result.infinite, run2[i].result.infinite);
    EXPECT_EQ(run1[i].result.contingency, run2[i].result.contingency);
    EXPECT_EQ(run1[i].result.value, serial[i].result.value);
    EXPECT_EQ(run1[i].result.contingency, serial[i].result.contingency);
  }
}

TEST(EngineBatchTest, SecondBatchIsAllCacheHits) {
  Workload w = MakeWorkload();
  ResilienceEngine engine;
  engine.EvaluateBatch(w.requests);
  int64_t compilations_after_first = engine.stats().compilations;
  engine.EvaluateBatch(w.requests);
  EXPECT_EQ(engine.stats().compilations, compilations_after_first);
  EXPECT_GT(engine.stats().cache_hits, 0);
}

TEST(EngineBatchTest, InvalidRegexFailsItsInstanceOnly) {
  Rng rng(3);
  DbRegistry registry;
  DbHandle db = registry.Register(RandomGraphDb(&rng, 4, 6, {'a', 'b'}, 1));
  std::vector<ResilienceRequest> requests = {
      {.regex = "ab", .db = db},
      {.regex = "(((", .db = db},
      {.regex = "ab", .db = db},
  };
  ResilienceEngine engine;
  std::vector<ResilienceResponse> responses = engine.EvaluateBatch(requests);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(engine.stats().errors, 1);
}

TEST(EngineEvaluateTest, SingleEvaluateMatchesDirectCompute) {
  Rng rng(11);
  DbRegistry registry;
  DbHandle db = registry.Register(LayeredFlowDb(&rng, 2, 3, 3, 2, 0.6, 4));
  ResilienceEngine engine;
  ResilienceResponse response = engine.Evaluate(
      {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});
  ASSERT_TRUE(response.status.ok()) << response.status;

  Result<ResilienceResult> direct = ComputeResilience(
      Language::MustFromRegexString("ax*b"), db.db(), Semantics::kBag);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.result.value, direct->value);
  EXPECT_FALSE(response.stats.cache_hit);
  EXPECT_GT(response.stats.compile_micros, 0);
  EXPECT_EQ(response.stats.complexity, "PTIME");
  EXPECT_EQ(response.result.algorithm, "local flow (Thm 3.13)");
  EXPECT_GT(response.result.network_vertices, 0);

  // Second run of the same query: cache hit, no compile cost attributed.
  ResilienceResponse again = engine.Evaluate(
      {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});
  EXPECT_TRUE(again.stats.cache_hit);
  EXPECT_EQ(again.stats.compile_micros, 0);
  EXPECT_EQ(again.result.value, response.result.value);
}

TEST(EngineEvaluateTest, TrivialAndErrorPlans) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("ab"));
  ResilienceEngine engine;

  // ε ∈ L: infinite resilience, no solver needed.
  ResilienceResponse inf = engine.Evaluate({.regex = "a*", .db = db});
  ASSERT_TRUE(inf.status.ok()) << inf.status;
  EXPECT_TRUE(inf.result.infinite);

  // NP-hard query with the exponential fallback disabled engine-wide:
  // the plan compiles, and the strict engine refuses to execute its exact
  // fallback with Unimplemented.
  EngineOptions no_exp;
  no_exp.allow_exponential = false;
  ResilienceEngine strict_engine(no_exp);
  ResilienceResponse hard =
      strict_engine.Evaluate({.regex = "ab|bc|ca", .db = db});
  EXPECT_FALSE(hard.status.ok());
  EXPECT_EQ(hard.status.code(), StatusCode::kUnimplemented);
}

TEST(EngineEvaluateTest, PerRequestOverrides) {
  // PathDb("abc") contains an "ab" and a "bc" walk; RES(ab|bc|ca) = 1
  // (delete the middle b-fact) and the branch & bound needs > 1 node.
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("abc"));
  ResilienceEngine engine;

  // Baseline: NP-hard regex runs through the exact fallback.
  ResilienceResponse base = engine.Evaluate({.regex = "ab|bc|ca", .db = db});
  ASSERT_TRUE(base.status.ok()) << base.status;

  // allow_exponential = false for this request only: refused, while the
  // engine default still allows it.
  ResilienceResponse refused = engine.Evaluate(
      {.regex = "ab|bc|ca", .db = db,
       .options = {.allow_exponential = false}});
  EXPECT_EQ(refused.status.code(), StatusCode::kUnimplemented);
  ResilienceResponse allowed_again =
      engine.Evaluate({.regex = "ab|bc|ca", .db = db});
  EXPECT_TRUE(allowed_again.status.ok());

  // A one-node exact budget: OutOfRange (the instance needs real search).
  ResilienceResponse starved = engine.Evaluate(
      {.regex = "ab|bc|ca", .db = db,
       .options = {.max_exact_search_nodes = 1}});
  EXPECT_EQ(starved.status.code(), StatusCode::kOutOfRange);

  // Forced method: brute force must agree with the exact fallback on a
  // small database.
  ResilienceResponse brute = engine.Evaluate(
      {.regex = "ab|bc|ca", .db = db,
       .options = {.method = ResilienceMethod::kBruteForce}});
  ASSERT_TRUE(brute.status.ok()) << brute.status;
  EXPECT_EQ(brute.result.value, base.result.value);
  EXPECT_NE(brute.result.algorithm, base.result.algorithm);

  // Forcing a polynomial solver outside its class is refused.
  ResilienceResponse wrong_class = engine.Evaluate(
      {.regex = "ab|bc|ca", .db = db,
       .options = {.method = ResilienceMethod::kLocalFlow}});
  EXPECT_FALSE(wrong_class.status.ok());

  // The opposite direction: a strict engine lets a request opt in, and a
  // forced kExact always runs. Refusal happens at execution, so all three
  // requests share one compiled plan.
  EngineOptions strict_options;
  strict_options.allow_exponential = false;
  ResilienceEngine strict(strict_options);
  ResilienceResponse opted_in = strict.Evaluate(
      {.regex = "ab|bc|ca", .db = db,
       .options = {.allow_exponential = true}});
  ASSERT_TRUE(opted_in.status.ok()) << opted_in.status;
  EXPECT_EQ(opted_in.result.value, 1);
  ResilienceResponse forced_exact = strict.Evaluate(
      {.regex = "ab|bc|ca", .db = db,
       .options = {.method = ResilienceMethod::kExact}});
  EXPECT_TRUE(forced_exact.status.ok()) << forced_exact.status;
  ResilienceResponse strict_default =
      strict.Evaluate({.regex = "ab|bc|ca", .db = db});
  EXPECT_EQ(strict_default.status.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(strict.stats().compilations, 1);
  EXPECT_EQ(strict.stats().cache_misses, 1);
}

// A refused exponential fallback is the request's policy, not an answer:
// its differential reads inconclusive, never a mismatch, whether the
// engine or the request refuses; the allowed request still agrees.
TEST(EngineEvaluateTest, RefusedFallbackIsNotADifferentialMismatch) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("abc"));
  EngineOptions strict_options;
  strict_options.allow_exponential = false;
  ResilienceEngine strict(strict_options);
  const std::vector<ResilienceRequest> requests = {
      {.regex = "ab|bc|ca", .db = db},
      {.regex = "ab|bc|ca", .db = db,
       .options = {.allow_exponential = false}}};
  std::vector<ResilienceResponse> refused =
      strict.EvaluateDifferential(std::span(requests).first(1));
  EXPECT_EQ(refused[0].status.code(), StatusCode::kUnimplemented);
  ASSERT_TRUE(refused[0].differential.has_value());
  EXPECT_TRUE(refused[0].differential->inconclusive);
  EXPECT_FALSE(refused[0].differential->agree);
  EXPECT_TRUE(refused[0].differential->mismatch.empty());
  EXPECT_EQ(strict.stats().differential_mismatches, 0);

  ResilienceEngine permissive;
  std::vector<ResilienceResponse> responses =
      permissive.EvaluateDifferential(requests);
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status;
  EXPECT_EQ(responses[0].result.value, 1);
  ASSERT_TRUE(responses[0].differential.has_value());
  EXPECT_TRUE(responses[0].differential->agree)
      << responses[0].differential->mismatch;
  EXPECT_EQ(responses[1].status.code(), StatusCode::kUnimplemented);
  ASSERT_TRUE(responses[1].differential.has_value());
  EXPECT_TRUE(responses[1].differential->inconclusive);
  EXPECT_EQ(permissive.stats().differential_mismatches, 0);
}

TEST(EngineCompiledQueryTest, ExposesClassificationAndPlan) {
  ResilienceEngine engine;
  auto compiled = engine.Compile("ax*b", Semantics::kBag);
  ASSERT_TRUE(compiled.ok());
  const CompiledQuery& q = **compiled;
  EXPECT_EQ(q.regex, "ax*b");
  EXPECT_EQ(q.semantics, Semantics::kBag);
  EXPECT_EQ(q.classification.complexity, ComplexityClass::kPtime);
  EXPECT_EQ(q.plan.method, ResilienceMethod::kLocalFlow);
  EXPECT_TRUE(q.plan.ro_tables.has_value());
  EXPECT_GT(q.compile_micros, 0);

  // A precompiled handle in the request skips the cache entirely.
  Rng rng(5);
  DbRegistry registry;
  DbHandle db = registry.Register(LayeredFlowDb(&rng, 2, 2, 3, 2, 0.5, 3));
  ResilienceRequest request;
  request.query = *compiled;
  request.db = db;
  ResilienceResponse response = engine.Evaluate(request);
  ASSERT_TRUE(response.status.ok());
  Result<ResilienceResult> direct = ComputeResilience(
      Language::MustFromRegexString("ax*b"), db.db(), Semantics::kBag);
  EXPECT_EQ(response.result.value, direct->value);
  EXPECT_TRUE(response.stats.cache_hit);
}

// The wall-clock bounds of the next four tests' compiles and scans are in
// engine_timing_test, which runs alone; these hold the verdicts.

// A boundary mutant with an infinite IF(L) that reaches the bounded
// four-legged witness search. At the default word bound its compile
// takes milliseconds; at a bound of 12 the word enumeration the search
// once was took about 29 s.
TEST(EngineCompiledQueryTest, DefaultWordBoundKeepsCompileFast) {
  auto compiled = CompileQuery("e(d|f)*b|bf", Semantics::kBag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
}

// Enumerating the words of e(a|b|c|d)*f|fe up to the default bound took
// about 37 s. The four-legged test now walks IF(L)'s minimal DFA, so the
// compile takes about a millisecond, with the same verdict.
TEST(EngineCompiledQueryTest, FourLeggedTestDoesNotEnumerateWords) {
  auto compiled = CompileQuery("e(a|b|c|d)*f|fe", Semantics::kBag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ((*compiled)->classification.complexity,
            ComplexityClass::kUnclassified);
  EXPECT_EQ((*compiled)->classification.rule, "no paper result applies");
}

// The (a|b)*a(a|b){n} family, delimited so that IF(L) = L: the minimal
// DFA doubles with each n, so every compile-time test must stay near
// linear in it.
constexpr char kFamily10[] =
    "c(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)d";
constexpr char kFamily11[] =
    "c(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)d";

// Both tests are one scan of the 2,051-state minimal DFA. Deciding them
// with automaton constructions (an overapproximation equivalence, and two
// determinized 2|Q|-state NFAs per letter) took 4-6 s.
TEST(EngineCompiledQueryTest, NeutralLetterAndLocalityAreDfaScans) {
  const Language lang = Language::MustFromRegexString(kFamily10);
  ASSERT_EQ(lang.min_dfa().num_states(), 2051);
  EXPECT_TRUE(NeutralLetters(lang).empty());
  EXPECT_FALSE(IsLocal(lang));
}

// The 64-character member compiled in about 20 s, most of it in the
// neutral-letter test and the star-free monoid walk (422 MiB). The walk
// now stops at its state-id cap, and the classifier skips only the rule
// that needs it.
TEST(EngineCompiledQueryTest, LargeDfaFamilyCompilesWithinBudget) {
  auto compiled = CompileQuery(kFamily11, Semantics::kBag);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const Classification& verdict = (*compiled)->classification;
  EXPECT_EQ(verdict.complexity, ComplexityClass::kUnclassified);
  EXPECT_EQ(verdict.rule, "no paper result applies");
  EXPECT_NE(verdict.detail.find("star-freeness undecided"), std::string::npos)
      << verdict.detail;
}

// IF(L) = L for each of these, with 4^10, 4^11 and 5^9 words of one
// length. The repeated-letter rule is a walk over IF(L)'s minimal DFA and
// if_language shows the first 32 words and the count, so no step lists
// the words, however many there are.
TEST(EngineCompiledQueryTest, RepeatedLetterRuleListsNoWords) {
  struct Case {
    std::string regex;
    std::string shortest;
    std::string count;
  };
  const std::vector<Case> cases = {
      {RepeatedGroup("(a|b|c|d)", 10), "aaaaaaaaaa", "1048576"},
      {RepeatedGroup("(a|b|c|d)", 11), "aaaaaaaaaaa", "4194304"},
      {RepeatedGroup("(a|b|c|d|e)", 9), "aaaaaaaaa", "1953125"},
  };
  for (const Case& c : cases) {
    auto compiled = CompileQuery(c.regex, Semantics::kBag);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    EXPECT_EQ((*compiled)->plan.method, ResilienceMethod::kExact);
    const Classification& verdict = (*compiled)->classification;
    EXPECT_EQ(verdict.complexity, ComplexityClass::kNpHard) << c.regex;
    EXPECT_EQ(verdict.rule, "finite with repeated-letter word (Thm 6.1)");
    EXPECT_EQ(verdict.detail, "shortest repeated-letter word " + c.shortest);
    const std::string& shown = verdict.if_language;
    EXPECT_EQ(shown.rfind(c.shortest + "|", 0), 0u) << shown;
    EXPECT_EQ(std::count(shown.begin(), shown.end(), '|'), 31) << shown;
    EXPECT_NE(shown.find("… (" + c.count + " words)"), std::string::npos)
        << shown;
  }
}

// ---------------------------------------------------------------------------
// Invalid requests
// ---------------------------------------------------------------------------

// A request with a default (invalid) DbHandle must fail with
// InvalidArgument — never crash — in every entry point, and an
// InvalidArgument differential pair judges as agreement (a caller error,
// not a solver divergence).
TEST(InvalidRequestTest, MissingDatabaseIsInvalidArgumentNotACrash) {
  ResilienceEngine engine;
  ResilienceResponse response = engine.Evaluate({.regex = "ab"});
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);

  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("ab"));
  std::vector<ResilienceRequest> requests = {
      {.regex = "ab", .db = db},
      {.regex = "ab"},  // no database
  };
  std::vector<ResilienceResponse> responses = engine.EvaluateBatch(requests);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);

  std::vector<ResilienceResponse> differential =
      engine.EvaluateDifferential(requests);
  ASSERT_TRUE(differential[0].differential.has_value());
  EXPECT_TRUE(differential[0].differential->agree)
      << differential[0].differential->mismatch;
  ASSERT_TRUE(differential[1].differential.has_value());
  EXPECT_EQ(differential[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(differential[1].differential->agree);
  EXPECT_TRUE(differential[1].differential->mismatch.empty());
  EXPECT_EQ(engine.stats().differential_mismatches, 0);
}

TEST(InvalidRequestTest, UnparsableRegexIsNotADifferentialMismatch) {
  // The reference parses the same regex, so a regex that fails to compile
  // is refused by both sides with the same status: an argument error, as
  // a request without a database is, not a solver divergence.
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("ab"));
  ResilienceEngine engine;
  std::vector<ResilienceRequest> requests = {
      {.regex = "(", .db = db},
      {.regex = "ab"},  // no database
  };
  std::vector<ResilienceResponse> responses =
      engine.EvaluateDifferential(requests);
  for (const ResilienceResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(response.differential.has_value());
    EXPECT_EQ(response.differential->reference_status.code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(response.differential->agree);
    EXPECT_TRUE(response.differential->mismatch.empty());
  }
  EXPECT_EQ(engine.stats().differential_mismatches, 0);
}

// ---------------------------------------------------------------------------
// Fixed-endpoint requests (Thm 3.13 ext through API v2)
// ---------------------------------------------------------------------------

TEST(FixedEndpointRequestTest, MatchesDirectSolverAndBooleanBound) {
  Rng rng(11);
  GraphDb graph = LayeredFlowDb(&rng, 2, 3, 3, 2, 0.6, 4);
  Language lang = Language::MustFromRegexString("ax*b");
  std::optional<WitnessWalk> walk = ShortestWitnessWalk(graph, lang);
  ASSERT_TRUE(walk.has_value() && !walk->empty());
  NodeId s = graph.fact(walk->front()).source;
  NodeId t = graph.fact(walk->back()).target;

  DbRegistry registry;
  DbHandle db = registry.Register(graph);
  ResilienceEngine engine;
  ResilienceResponse targeted = engine.Evaluate({.regex = "ax*b",
                                                 .db = db,
                                                 .semantics = Semantics::kBag,
                                                 .source = s,
                                                 .target = t});
  ASSERT_TRUE(targeted.status.ok()) << targeted.status;
  EXPECT_EQ(targeted.result.algorithm,
            "local flow, fixed endpoints (Thm 3.13 ext)");

  Result<ResilienceResult> direct = SolveLocalResilienceFixedEndpoints(
      lang, graph, s, t, Semantics::kBag);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_EQ(targeted.result.infinite, direct->infinite);
  EXPECT_EQ(targeted.result.value, direct->value);

  // Targeted interdiction can never cost more than the Boolean one.
  ResilienceResponse boolean = engine.Evaluate(
      {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});
  ASSERT_TRUE(boolean.status.ok());
  EXPECT_LE(targeted.result.value, boolean.result.value);

  // The targeted witness must actually sever every s -> t route.
  std::vector<bool> removed(graph.num_facts(), false);
  for (FactId f : targeted.result.contingency) removed[f] = true;
  EXPECT_FALSE(EvaluatesToTrueBetween(graph, LabelIndex(graph),
                                      lang.min_dfa(), s, t, &removed));
}

TEST(FixedEndpointRequestTest, ValidationAndNonLocalRefusal) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("axxb"));
  ResilienceEngine engine;

  // Half-set endpoints: InvalidArgument.
  ResilienceResponse half =
      engine.Evaluate({.regex = "ax*b", .db = db, .source = 0});
  EXPECT_EQ(half.status.code(), StatusCode::kInvalidArgument);

  // Out-of-range endpoints: InvalidArgument.
  ResilienceResponse out_of_range = engine.Evaluate(
      {.regex = "ax*b", .db = db, .source = 0, .target = 999});
  EXPECT_EQ(out_of_range.status.code(), StatusCode::kInvalidArgument);

  // Forced solver + endpoints: InvalidArgument.
  ResilienceResponse forced = engine.Evaluate(
      {.regex = "ax*b",
       .db = db,
       .source = 0,
       .target = 4,
       .options = {.method = ResilienceMethod::kLocalFlow}});
  EXPECT_EQ(forced.status.code(), StatusCode::kInvalidArgument);

  // Non-local language (IF-rewriting unsound with endpoints):
  // FailedPrecondition even though IF(a|aa) = {a} is local.
  ResilienceResponse non_local = engine.Evaluate(
      {.regex = "a|aa", .db = db, .source = 0, .target = 4});
  EXPECT_EQ(non_local.status.code(), StatusCode::kFailedPrecondition);

  // Same endpoints with ε ∈ L: infinite (the query holds vacuously).
  ResilienceResponse eps = engine.Evaluate(
      {.regex = "x*", .db = db, .source = 2, .target = 2});
  ASSERT_TRUE(eps.status.ok()) << eps.status;
  EXPECT_TRUE(eps.result.infinite);

  // Differential runs get a real second opinion on small databases: the
  // endpoint-pinned brute force agrees with the flow answer.
  std::vector<ResilienceRequest> requests = {
      {.regex = "ax*b", .db = db, .source = 0, .target = 4}};
  std::vector<ResilienceResponse> judged =
      engine.EvaluateDifferential(requests);
  ASSERT_TRUE(judged[0].differential.has_value());
  EXPECT_FALSE(judged[0].differential->inconclusive);
  EXPECT_TRUE(judged[0].differential->agree);
  EXPECT_EQ(judged[0].differential->reference_result.value,
            judged[0].result.value);
  EXPECT_EQ(engine.stats().differential_mismatches, 0);

  // A primary with no answer (expired deadline) is inconclusive — never
  // counted as agreement, never as a mismatch.
  std::vector<ResilienceRequest> expired = {
      {.regex = "ax*b",
       .db = db,
       .source = 0,
       .target = 4,
       .options = {.deadline = std::chrono::steady_clock::now() -
                               std::chrono::milliseconds(1)}}};
  std::vector<ResilienceResponse> timed_out =
      engine.EvaluateDifferential(expired);
  EXPECT_EQ(timed_out[0].status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(timed_out[0].differential.has_value());
  EXPECT_TRUE(timed_out[0].differential->inconclusive);
  EXPECT_FALSE(timed_out[0].differential->agree);
  EXPECT_EQ(engine.stats().differential_mismatches, 0);
}

TEST(ResiliencePlanTest, PlanApiMatchesAutoDispatch) {
  struct Case {
    const char* regex;
    ResilienceMethod method;
  };
  for (const Case& c : std::vector<Case>{
           {"ax*b", ResilienceMethod::kLocalFlow},
           {"ab|bc", ResilienceMethod::kBclFlow},
           {"abc|be", ResilienceMethod::kOneDanglingFlow},
           {"ab|bc|ca", ResilienceMethod::kExact},
       }) {
    SCOPED_TRACE(c.regex);
    Language lang = Language::MustFromRegexString(c.regex);
    Result<ResiliencePlan> plan = PlanResilience(lang);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->method, c.method);

    Rng rng(23);
    GraphDb db =
        RandomGraphDb(&rng, 6, 14, {'a', 'b', 'c', 'e', 'x'}, 2);
    Result<ResilienceResult> via_plan =
        ComputeResilienceWithPlan(*plan, db, Semantics::kBag);
    Result<ResilienceResult> via_auto =
        ComputeResilience(lang, db, Semantics::kBag);
    ASSERT_TRUE(via_plan.ok() && via_auto.ok());
    EXPECT_EQ(via_plan->value, via_auto->value);
    EXPECT_EQ(via_plan->infinite, via_auto->infinite);
    // Forcing the method kAuto picked plans the same solver.
    Result<ResilienceResult> forced =
        ComputeResilience(lang, db, Semantics::kBag, {.method = c.method});
    ASSERT_TRUE(forced.ok()) << forced.status();
    EXPECT_EQ(forced->value, via_auto->value);
    EXPECT_EQ(forced->infinite, via_auto->infinite);
  }
}

TEST(ResiliencePlanTest, ForcedMethodIsAPlan) {
  const Language ab = Language::MustFromRegexString("ab");
  Result<ResiliencePlan> exact = PlanResilience(ab, ResilienceMethod::kExact);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->method, ResilienceMethod::kExact);
  EXPECT_FALSE(exact->ro_tables.has_value());
  EXPECT_FALSE(exact->bcl_tables.has_value());
  EXPECT_FALSE(exact->one_dangling_tables.has_value());

  Result<ResiliencePlan> local =
      PlanResilience(ab, ResilienceMethod::kLocalFlow);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(local->method, ResilienceMethod::kLocalFlow);
  EXPECT_TRUE(local->ro_tables.has_value());

  // Outside its class a forced flow method is refused at plan time.
  Result<ResiliencePlan> hard = PlanResilience(
      Language::MustFromRegexString("ab|bc|ca"), ResilienceMethod::kLocalFlow);
  EXPECT_EQ(hard.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace rpqres
