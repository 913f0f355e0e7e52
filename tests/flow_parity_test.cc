// Differential parity suite for the zero-copy flow core: across >= 500
// workload seeds per flow-backed class (local, BCL, one-dangling), the
// pruned, terminal-contracted product path must produce the same cut
// value and the same contingency set as (a) the full, uncontracted
// construction (the retired pre-CSR behavior, reproduced via
// SolverScratch::disable_product_pruning), and the same value as (b) the
// independent exact branch & bound — with every flow witness verifying
// against the database. This is the regression net under every
// future flow optimization; the CI ASan/UBSan job runs it over the same
// seeds with sanitizers on.

#include <gtest/gtest.h>

#include <string>

#include "flow/solver_scratch.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"
#include "workload/workload.h"

namespace rpqres {
namespace {

using workload::MakeWorkloadInstance;
using workload::QueryClass;
using workload::SeedFor;
using workload::WorkloadInstance;

struct ParityCounters {
  int generated = 0;
  int flow_solved = 0;
  int exact_compared = 0;
  int exact_inconclusive = 0;
};

class FlowParityTest : public ::testing::TestWithParam<QueryClass> {};

TEST_P(FlowParityTest, PrunedCsrPathMatchesSeedSemantics) {
  constexpr int kSeedsPerClass = 500;
  constexpr uint64_t kBaseSeed = 20260729;
  ParityCounters counters;
  SolverScratch scratch;

  for (int i = 0; i < kSeedsPerClass; ++i) {
    uint64_t seed = SeedFor(kBaseSeed, GetParam(), i);
    Result<WorkloadInstance> instance = MakeWorkloadInstance(seed);
    if (!instance.ok()) continue;  // no candidate hit the class budget
    ++counters.generated;
    SCOPED_TRACE("seed " + std::to_string(seed) + " regex " +
                 instance->query.regex);

    Result<Language> lang = Language::FromRegexString(instance->query.regex);
    ASSERT_TRUE(lang.ok()) << lang.status();
    Result<ResiliencePlan> plan = PlanResilience(*lang);
    ASSERT_TRUE(plan.ok()) << plan.status();
    if (plan->method != ResilienceMethod::kLocalFlow &&
        plan->method != ResilienceMethod::kBclFlow &&
        plan->method != ResilienceMethod::kOneDanglingFlow &&
        !plan->trivial_infinite && !plan->trivial_empty) {
      continue;  // boundary mutant that classified off the flow cells
    }
    const GraphDb& db = instance->db;
    const Semantics semantics = instance->semantics;
    LabelIndex index(db);

    // The serving path: pruned product, label index, reused scratch.
    Result<ResilienceResult> indexed =
        ComputeResilienceWithPlan(*plan, db, semantics, {}, &index, &scratch);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    // The retired construction: full |V|·|S| product, no pruning.
    scratch.disable_product_pruning = true;
    Result<ResilienceResult> unpruned =
        ComputeResilienceWithPlan(*plan, db, semantics, {}, &index, &scratch);
    scratch.disable_product_pruning = false;
    ASSERT_TRUE(unpruned.ok()) << unpruned.status();
    ++counters.flow_solved;

    EXPECT_EQ(indexed->infinite, unpruned->infinite);
    if (!indexed->infinite) {
      EXPECT_EQ(indexed->value, unpruned->value);
      // Both networks have the same minimum cut closest to the source.
      EXPECT_EQ(indexed->contingency, unpruned->contingency);
    }
    for (const Result<ResilienceResult>* r : {&indexed, &unpruned}) {
      EXPECT_EQ(VerifyResilienceResult(*lang, db, semantics, **r),
                Status::OK());
    }
    // The unpruned network accounts for every vertex the pruned one
    // skipped (local flow reports the full 2 + |V|·|S| construction).
    if (plan->method == ResilienceMethod::kLocalFlow &&
        !indexed->infinite) {
      EXPECT_EQ(indexed->network_vertices + indexed->product_vertices_pruned,
                unpruned->network_vertices);
    }

    // Independent third opinion: exact branch & bound under a budget.
    ExactOptions exact_options;
    exact_options.max_search_nodes = 2'000'000;
    Result<ResilienceResult> reference =
        SolveExactResilience(*lang, db, semantics, exact_options);
    if (!reference.ok()) {
      ASSERT_EQ(reference.status().code(), StatusCode::kOutOfRange)
          << reference.status();
      ++counters.exact_inconclusive;
      continue;
    }
    ++counters.exact_compared;
    EXPECT_EQ(indexed->infinite, reference->infinite);
    if (!indexed->infinite) EXPECT_EQ(indexed->value, reference->value);
  }

  // The sweep must be substantive, not vacuously green.
  EXPECT_GE(counters.generated, kSeedsPerClass * 9 / 10);
  EXPECT_GE(counters.flow_solved, kSeedsPerClass / 2);
  EXPECT_GE(counters.exact_compared, counters.flow_solved / 2);
}

INSTANTIATE_TEST_SUITE_P(FlowClasses, FlowParityTest,
                         ::testing::Values(QueryClass::kLocal,
                                           QueryClass::kBcl,
                                           QueryClass::kOneDangling),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case QueryClass::kLocal:
                               return "Local";
                             case QueryClass::kBcl:
                               return "Bcl";
                             default:
                               return "OneDangling";
                           }
                         });

}  // namespace
}  // namespace rpqres
