// Tracing overhead gate. Identical ax*b requests over deep layered
// products go to two single-thread engines, one with per-request tracing
// off and one with it on, alternating round by round so that machine
// drift hits both alike. On each database, the traced engine's p50 solve
// time must stay within 5% + 5 µs of the untraced engine's.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/generators.h"
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
  constexpr int kRounds = 60;
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

}  // namespace
}  // namespace rpqres
