// Tests for the differential oracle and the engine's EvaluateDifferential:
// clean sweeps on seeded workloads, replay determinism, the judge's
// mismatch detection, and counterexample machinery.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "graphdb/generators.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "workload/differential_oracle.h"

namespace rpqres {
namespace {

using workload::DifferentialOracle;
using workload::OracleOptions;
using workload::OracleReport;
using workload::QueryClassForSeed;
using workload::SeedFor;
using workload::WorkloadInstance;

TEST(SeedEncodingTest, SeedsCarryTheirClass) {
  for (uint64_t base : {0ull, 17ull, 20250729ull}) {
    for (workload::QueryClass query_class : workload::kAllQueryClasses) {
      for (int i = 0; i < 5; ++i) {
        uint64_t seed = SeedFor(base, query_class, i);
        EXPECT_EQ(QueryClassForSeed(seed), query_class)
            << "base=" << base << " i=" << i;
      }
    }
  }
}

TEST(OracleTest, SmallSweepIsClean) {
  OracleOptions options;
  options.instances_per_class = 12;
  options.base_seed = 424242;
  DifferentialOracle oracle(options);
  OracleReport report = oracle.RunAll();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.mismatches.size(), 0u);
  EXPECT_EQ(report.per_class.size(), workload::kAllQueryClasses.size());
  for (const workload::OracleClassReport& c : report.per_class) {
    EXPECT_EQ(c.instances + c.generation_failures, 12)
        << workload::QueryClassName(c.query_class);
    EXPECT_EQ(c.mismatches, 0);
  }
  EngineStats stats = oracle.engine().stats();
  EXPECT_EQ(stats.differential_mismatches, 0);
  EXPECT_EQ(stats.differentials_run, report.instances);
}

TEST(OracleTest, ReplayRebuildsTheSameInstance) {
  OracleOptions options;
  DifferentialOracle oracle(options);
  uint64_t seed = SeedFor(99991, workload::QueryClass::kOneDangling, 3);
  Result<WorkloadInstance> a = oracle.BuildInstance(seed);
  Result<WorkloadInstance> b = oracle.BuildInstance(seed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->query.regex, b->query.regex);
  EXPECT_EQ(a->semantics, b->semantics);
  EXPECT_EQ(a->shape, b->shape);
  EXPECT_EQ(SerializeGraphDb(a->db), SerializeGraphDb(b->db));

  OracleReport replay = oracle.RunSeeds({seed});
  EXPECT_EQ(replay.instances, 1);
  EXPECT_TRUE(replay.clean());
}

TEST(OracleTest, RunSeedsGroupsMixedClasses) {
  OracleOptions options;
  DifferentialOracle oracle(options);
  std::vector<uint64_t> seeds;
  for (workload::QueryClass query_class : workload::kAllQueryClasses) {
    seeds.push_back(SeedFor(1000, query_class, 0));
    seeds.push_back(SeedFor(1000, query_class, 1));
  }
  OracleReport report = oracle.RunSeeds(seeds);
  EXPECT_EQ(report.instances + report.generation_failures,
            static_cast<int64_t>(seeds.size()));
}

// JudgeDifferential is the oracle's verdict core — feed it doctored
// results and check each divergence is caught and described. Operates on
// the v2 ResilienceResponse with its differential section.
TEST(JudgeDifferentialTest, CatchesDoctoredResults) {
  Language lang = Language::MustFromRegexString("ab");
  GraphDb db = PathDb("ab");  // RES = 1, witness {0} or {1}
  Semantics semantics = Semantics::kSet;

  auto solve = [&](ResilienceMethod method) {
    ResilienceOptions options;
    options.method = method;
    return ComputeResilience(lang, db, semantics, options);
  };
  Result<ResilienceResult> honest = solve(ResilienceMethod::kExact);
  ASSERT_TRUE(honest.ok());

  // Agreement on honest results.
  ResilienceResponse response;
  response.differential.emplace();
  response.result = *honest;
  response.differential->reference_result = *honest;
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_TRUE(response.differential->agree)
      << response.differential->mismatch;

  // Value divergence.
  response.result.value = 7;
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_FALSE(response.differential->agree);
  EXPECT_NE(response.differential->mismatch.find("value divergence"),
            std::string::npos);

  // Infinite divergence.
  response.result = *honest;
  response.result.infinite = true;
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_FALSE(response.differential->agree);
  EXPECT_NE(response.differential->mismatch.find("infinite divergence"),
            std::string::npos);

  // Invalid witness: right value, wrong facts (empty set doesn't break
  // the query).
  response.result = *honest;
  response.result.contingency.clear();
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_FALSE(response.differential->agree);
  EXPECT_NE(response.differential->mismatch.find("primary witness invalid"),
            std::string::npos);

  // Status divergence. (JudgeDifferential creates the differential
  // section itself when absent.)
  response = ResilienceResponse{};
  response.status = Status::Internal("boom");
  ASSERT_FALSE(response.differential.has_value());
  JudgeDifferential(lang, db, semantics, &response);
  ASSERT_TRUE(response.differential.has_value());
  response.differential->reference_result = *honest;
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_FALSE(response.differential->agree);
  EXPECT_NE(response.differential->mismatch.find("status divergence"),
            std::string::npos);

  // Budget exhaustion is inconclusive, not a mismatch.
  response = ResilienceResponse{};
  response.status = Status::OutOfRange("node budget");
  response.differential.emplace();
  response.differential->reference_result = *honest;
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_FALSE(response.differential->agree);
  EXPECT_TRUE(response.differential->inconclusive);
  EXPECT_TRUE(response.differential->mismatch.empty());

  // Deadline exhaustion on the reference side is inconclusive too.
  response = ResilienceResponse{};
  response.result = *honest;
  response.differential.emplace();
  response.differential->reference_status =
      Status::DeadlineExceeded("too slow");
  JudgeDifferential(lang, db, semantics, &response);
  EXPECT_FALSE(response.differential->agree);
  EXPECT_TRUE(response.differential->inconclusive);
  EXPECT_TRUE(response.differential->mismatch.empty());
}

TEST(EvaluateDifferentialTest, AgreesOnMixedBatchAndCountsStats) {
  Rng rng(8);
  DbRegistry registry;
  DbHandle db1 = registry.Register(
      RandomGraphDb(&rng, 6, 14, {'a', 'b', 'c', 'x'}, 3), "random");
  DbHandle db2 = registry.Register(PathDb("axxb"), "path");
  std::vector<ResilienceRequest> requests = {
      {.regex = "ax*b", .db = db1, .semantics = Semantics::kBag},
      {.regex = "ax*b", .db = db2, .semantics = Semantics::kSet},
      {.regex = "ab|bc", .db = db1, .semantics = Semantics::kSet},
      {.regex = "aa|bb", .db = db1, .semantics = Semantics::kBag},
      {.regex = "abc|bx", .db = db1, .semantics = Semantics::kSet},
  };
  ResilienceEngine engine;
  std::vector<ResilienceResponse> responses =
      engine.EvaluateDifferential(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].differential.has_value()) << i;
    EXPECT_TRUE(responses[i].differential->agree)
        << requests[i].regex << ": " << responses[i].differential->mismatch;
  }
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.differentials_run, 5);
  EXPECT_EQ(stats.differential_mismatches, 0);
  // The primary side went through the normal instance path.
  EXPECT_EQ(stats.instances_run, 5);
}

TEST(EvaluateDifferentialTest, CompileErrorIsReportedPerInstance) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("ab"));
  std::vector<ResilienceRequest> requests = {
      {.regex = "a(b", .db = db},  // unbalanced: compile error
      {.regex = "ab", .db = db},
  };
  ResilienceEngine engine;
  std::vector<ResilienceResponse> responses =
      engine.EvaluateDifferential(requests);
  // The reference would refuse the same parse: an argument error both
  // sides share, which agrees (JudgeDifferential's contract).
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(responses[0].differential.has_value());
  EXPECT_EQ(responses[0].differential->reference_status.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[0].differential->agree);
  ASSERT_TRUE(responses[1].differential.has_value());
  EXPECT_TRUE(responses[1].differential->agree)
      << responses[1].differential->mismatch;
}

// Differential verdicts ride on the unified response: the primary and
// reference answers of an agreeing pair must match.
TEST(EvaluateDifferentialTest, AgreeingPairCarriesBothAnswers) {
  DbRegistry registry;
  DbHandle db = registry.Register(PathDb("axxb"));
  std::vector<ResilienceRequest> requests = {
      {.regex = "ax*b", .db = db, .semantics = Semantics::kSet}};
  ResilienceEngine engine;
  std::vector<ResilienceResponse> responses =
      engine.EvaluateDifferential(requests);
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].differential.has_value());
  EXPECT_TRUE(responses[0].differential->agree)
      << responses[0].differential->mismatch;
  EXPECT_EQ(responses[0].result.value,
            responses[0].differential->reference_result.value);
}

}  // namespace
}  // namespace rpqres
