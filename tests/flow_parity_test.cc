// Differential parity suite for the zero-copy flow core: across >= 500
// workload seeds per flow-backed class (local, BCL, one-dangling), the
// pruned, terminal-contracted product path must produce the same cut
// value and the same contingency set as (a) the full, uncontracted
// construction (the retired pre-CSR behavior, reproduced via
// SolverScratch::disable_product_pruning), (b) for local and one-dangling
// plans, the same solve on Lemma 3.17's RO-εNFA (tests/lemma317_ro_enfa.h)
// in place of the one read off the minimal DFA, built on IF(L), resp. on
// the base B, and on four fixed-endpoint pairs per local instance; and the
// same value as (c) the independent exact branch & bound — with every
// flow witness verifying against the database. This is the regression net
// under every future flow optimization; the CI ASan/UBSan job runs it over
// the same seeds with sanitizers on.

#include <gtest/gtest.h>

#include <string>

#include "flow/solver_scratch.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/one_dangling.h"
#include "lang/ro_enfa.h"
#include "lemma317_ro_enfa.h"
#include "resilience/exact.h"
#include "resilience/local_resilience.h"
#include "resilience/one_dangling_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"
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
  int reference_compared = 0;
  int fixed_endpoint_compared = 0;
  int exact_compared = 0;
  int exact_inconclusive = 0;
};

RoProductTables Lemma317Tables(const Language& lang) {
  return BuildRoProductTables(Lemma317RoEnfa(lang)).ValueOrDie();
}

// Same infinite flag, value and contingency set.
void ExpectSameAnswer(const ResilienceResult& got,
                      const ResilienceResult& reference) {
  EXPECT_EQ(got.infinite, reference.infinite);
  if (got.infinite || reference.infinite) return;
  EXPECT_EQ(got.value, reference.value);
  EXPECT_EQ(got.contingency, reference.contingency);
}

// The local and one-dangling solves again on Lemma 3.17's automaton: on
// IF(L) for a local plan, on B for a one-dangling plan, and for a local
// plan on four fixed-endpoint pairs with the tables of L itself (IF(L)'s
// when only IF(L) is local).
void CompareWithLemma317(const ResiliencePlan& plan, const Language& lang,
                         const GraphDb& db, Semantics semantics,
                         const LabelIndex& index, uint64_t seed,
                         const ResilienceResult& solved,
                         SolverScratch* scratch, ParityCounters* counters) {
  if (plan.method == ResilienceMethod::kOneDanglingFlow) {
    OneDanglingTables reference = *plan.one_dangling_tables;
    reference.base =
        Lemma317Tables(FindOneDanglingDecomposition(plan.if_language)->base);
    Result<ResilienceResult> lemma =
        SolveOneDanglingWithTables(reference, db, semantics, &index, scratch);
    ASSERT_TRUE(lemma.ok()) << lemma.status();
    ExpectSameAnswer(solved, *lemma);
    ++counters->reference_compared;
    return;
  }
  if (plan.method != ResilienceMethod::kLocalFlow) return;
  ExpectSameAnswer(solved, SolveLocalResilienceWithTables(
                               Lemma317Tables(plan.if_language), db,
                               semantics, &index, scratch));
  ++counters->reference_compared;
  if (db.num_nodes() == 0) return;
  const Language& fixed = IsLocal(lang) ? lang : plan.if_language;
  const RoProductTables tables =
      BuildRoProductTables(BuildRoEnfa(fixed).ValueOrDie()).ValueOrDie();
  const RoProductTables reference = Lemma317Tables(fixed);
  Rng rng(seed);
  for (int pair = 0; pair < 4; ++pair) {
    const NodeId source = static_cast<NodeId>(rng.NextBelow(db.num_nodes()));
    const NodeId target = static_cast<NodeId>(rng.NextBelow(db.num_nodes()));
    SCOPED_TRACE("endpoints " + std::to_string(source) + " -> " +
                 std::to_string(target));
    ExpectSameAnswer(SolveLocalResilienceFixedEndpointsWithTables(
                         tables, db, source, target, semantics, &index,
                         scratch),
                     SolveLocalResilienceFixedEndpointsWithTables(
                         reference, db, source, target, semantics, &index,
                         scratch));
    ++counters->fixed_endpoint_compared;
  }
}

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
    CompareWithLemma317(*plan, *lang, db, semantics, index, seed, *indexed,
                        &scratch, &counters);

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
    if (!indexed->infinite) {
      EXPECT_EQ(indexed->value, reference->value);
    }
  }

  // The sweep must be substantive, not vacuously green.
  EXPECT_GE(counters.generated, kSeedsPerClass * 9 / 10);
  EXPECT_GE(counters.flow_solved, kSeedsPerClass / 2);
  EXPECT_GE(counters.exact_compared, counters.flow_solved / 2);
  if (GetParam() != QueryClass::kBcl) {
    EXPECT_GE(counters.reference_compared, counters.flow_solved / 2);
  }
  if (GetParam() == QueryClass::kLocal) {
    EXPECT_GE(counters.fixed_endpoint_compared, counters.reference_compared);
  }
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
