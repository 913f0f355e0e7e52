// The engine's wall-clock gates, run alone under the `timing` label.
//
// Tracing overhead: identical ax*b requests over deep layered products go
// to two single-thread engines, one with per-request tracing off and one
// with it on, alternating round by round so that machine drift hits both
// alike. On each database, the traced engine's p50 solve time must stay
// within 5% + 5 µs of the untraced engine's.
//
// Compile budgets: inputs whose compile once took seconds to minutes each
// stay under a wall-clock bound. engine_test holds their verdicts.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/compiled_query.h"
#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/neutral_letter.h"
#include "language_sweep.h"
#include "util/rng.h"

namespace rpqres {
namespace {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

TEST(EngineTimingTest, TracingCostsAtMostFivePercentPlusFiveMicros) {
  DbRegistry registry;
  std::vector<ResilienceRequest> requests;
  Rng rng(31337);
  for (int layers : {24, 32}) {
    ResilienceRequest request;
    request.regex = "ax*b";
    request.semantics = Semantics::kBag;
    request.db = registry.Register(
        LayeredFlowDb(&rng, /*sources=*/4, layers, /*width=*/8, /*sinks=*/4,
                      /*density=*/0.35, /*max_multiplicity=*/40));
    requests.push_back(std::move(request));
  }
  // One worker each: a pool would add scheduling jitter to exactly the
  // difference under test. Both workers inherit this thread's affinity,
  // pinned to the CPU it runs on, and only one of them works at a time:
  // whatever slows that CPU slows both sides alike, as alternating the
  // rounds does for drift over time.
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(sched_getcpu(), &one_cpu);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one_cpu), &one_cpu), 0);
  EngineOptions off_options;
  off_options.num_threads = 1;
  off_options.enable_tracing = false;
  EngineOptions on_options = off_options;
  on_options.enable_tracing = true;
  ResilienceEngine off(off_options);
  ResilienceEngine on(on_options);
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);

  constexpr int kWarmupRounds = 3;
  // About half a second of solves per side and database at ~70 µs a
  // solve (45-110 µs on a 4-vCPU VM), so that no single burst on the
  // machine decides a p50.
  constexpr int kRounds = 7000;
  // Samples per side and database: a p50 over both databases together
  // would sit between the two sizes' solve times, where one slow solve
  // moves it by the gap between them.
  std::vector<double> off_micros[2], on_micros[2];
  for (int round = 0; round < kWarmupRounds + kRounds; ++round) {
    for (auto [engine, samples] : {std::make_tuple(&off, off_micros),
                                   std::make_tuple(&on, on_micros)}) {
      const std::vector<ResilienceResponse> responses =
          engine->EvaluateBatch(requests);
      if (round < kWarmupRounds) continue;
      for (size_t i = 0; i < responses.size(); ++i) {
        ASSERT_TRUE(responses[i].status.ok())
            << responses[i].status.ToString();
        samples[i].push_back(responses[i].stats.solve_micros);
      }
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const double off_p50 = Median(off_micros[i]);
    const double on_p50 = Median(on_micros[i]);
    std::printf("tracing gate, database %zu: off p50 %.1f us, on p50 %.1f "
                "us, ratio %.3f\n",
                i, off_p50, on_p50, on_p50 / off_p50);
    EXPECT_LE(on_p50, off_p50 * 1.05 + 5.0)
        << "database " << i << ": tracing off p50 " << off_p50
        << " us, on p50 " << on_p50 << " us";
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Wall time of CompileQuery(regex) under bag semantics, which must succeed.
double CompileSeconds(const std::string& regex) {
  const auto start = std::chrono::steady_clock::now();
  auto compiled = CompileQuery(regex, Semantics::kBag);
  const double seconds = SecondsSince(start);
  EXPECT_TRUE(compiled.ok()) << regex << ": " << compiled.status();
  return seconds;
}

// The (a|b)*a(a|b){n} family of engine_test, delimited so that IF(L) = L;
// its minimal DFA doubles with each n.
constexpr char kFamily10[] =
    "c(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)d";
constexpr char kFamily11[] =
    "c(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)(a|b)d";

// At a word bound of 12, the word enumeration the four-legged search once
// was took about 29 s on this boundary mutant.
TEST(EngineCompileBudgetTest, DefaultWordBoundKeepsCompileFast) {
  EXPECT_LT(CompileSeconds("e(d|f)*b|bf"), 5.0);
}

// Enumerating the words up to the default bound took about 37 s; the walk
// over IF(L)'s minimal DFA takes about a millisecond.
TEST(EngineCompileBudgetTest, FourLeggedTestDoesNotEnumerateWords) {
  EXPECT_LT(CompileSeconds("e(a|b|c|d)*f|fe"), 1.0);
}

// Both tests are one scan of the 2,051-state minimal DFA; the automaton
// constructions they replaced took 4-6 s.
TEST(EngineCompileBudgetTest, NeutralLetterAndLocalityAreDfaScans) {
  const Language lang = Language::MustFromRegexString(kFamily10);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<char> neutral = NeutralLetters(lang);
  const bool local = IsLocal(lang);
  EXPECT_LT(SecondsSince(start), 0.5)
      << neutral.size() << " neutral letters, local " << local;
}

// The repeated-letter rule once listed the 2^20 words of IF(L) = L, about
// 0.54 s and 83 MiB; it is now a walk over the 11-state minimal DFA.
TEST(EngineCompileBudgetTest, RepeatedLetterRuleListsNoWords) {
  EXPECT_LT(CompileSeconds(RepeatedGroup("(a|b|c|d)", 10)), 0.05);
}

// The 64-character member compiled in about 20 s and 422 MiB before the
// star-free monoid walk got its state-id cap.
TEST(EngineCompileBudgetTest, LargeDfaFamilyCompilesWithinBudget) {
  EXPECT_LT(CompileSeconds(kFamily11), 5.0);
}

}  // namespace
}  // namespace rpqres
