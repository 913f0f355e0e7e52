// Tests for the graph database text format.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "graphdb/generators.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

TEST(SerializationTest, ParseBasic) {
  Result<GraphDb> db = ParseGraphDb(R"(
# a comment
u a v
v x w 3
w b t 2 exo
u b t exo
)");
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(db->num_nodes(), 4);
  EXPECT_EQ(db->num_facts(), 4);
  FactId vxw = db->FindFact(db->GetOrAddNode("v"), 'x',
                            db->GetOrAddNode("w"));
  ASSERT_NE(vxw, -1);
  EXPECT_EQ(db->multiplicity(vxw), 3);
  EXPECT_FALSE(db->IsExogenous(vxw));
  FactId wbt = db->FindFact(db->GetOrAddNode("w"), 'b',
                            db->GetOrAddNode("t"));
  EXPECT_EQ(db->multiplicity(wbt), 2);
  EXPECT_TRUE(db->IsExogenous(wbt));
  FactId ubt = db->FindFact(db->GetOrAddNode("u"), 'b',
                            db->GetOrAddNode("t"));
  EXPECT_EQ(db->multiplicity(ubt), 1);
  EXPECT_TRUE(db->IsExogenous(ubt));
}

TEST(SerializationTest, ParseErrors) {
  for (const char* bad : {"u a", "u ab v", "u a v 0", "u a v -3",
                          "u a v three", "u a v 2 what", "u a v 2 exo x"}) {
    Result<GraphDb> db = ParseGraphDb(bad);
    EXPECT_FALSE(db.ok()) << bad;
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SerializationTest, MultiplicitiesAreBounded) {
  // Both inputs used to reach the flow core: the first aborted a bag solve
  // on its capacity limit, the second overflowed AddFact's int64 sum.
  for (const char* huge : {"u a v 4611686018427387904\n",
                           "u a v 9223372036854775807\nu a v 1\n"}) {
    Result<GraphDb> db = ParseGraphDb(huge);
    EXPECT_FALSE(db.ok()) << huge;
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument) << huge;
  }
  const std::string max = std::to_string(kMaxMultiplicity);
  const std::string over = std::to_string(kMaxMultiplicity + 1);
  const std::string below = std::to_string(kMaxMultiplicity - 1);
  EXPECT_TRUE(ParseGraphDb("u a v " + max + "\n").ok());
  EXPECT_EQ(ParseGraphDb("u a v " + over + "\n").status().code(),
            StatusCode::kInvalidArgument);
  // A repeated fact accumulates up to the bound, never past it.
  EXPECT_EQ(ParseGraphDb("u a v " + below + "\nu a v 2\n").status().code(),
            StatusCode::kInvalidArgument);
  Result<GraphDb> at_bound = ParseGraphDb("u a v " + below + "\nu a v 1\n");
  ASSERT_TRUE(at_bound.ok()) << at_bound.status();
  EXPECT_EQ(at_bound->multiplicity(0), kMaxMultiplicity);
  // The largest accepted multiplicity solves under bag semantics.
  Result<ResilienceResult> solved = ComputeResilience(
      Language::MustFromRegexString("a"), *at_bound, Semantics::kBag);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_EQ(solved->value, kMaxMultiplicity);
}

TEST(SerializationTest, EmptyInputIsEmptyDb) {
  Result<GraphDb> db = ParseGraphDb("  \n# nothing here\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_facts(), 0);
}

TEST(SerializationTest, RoundTrip) {
  Rng rng(42);
  GraphDb original = RandomGraphDb(&rng, 8, 25, {'a', 'b', 'x'}, 5);
  original.SetExogenous(0);
  original.SetExogenous(3);
  Result<GraphDb> parsed = ParseGraphDb(SerializeGraphDb(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_facts(), original.num_facts());
  for (FactId f = 0; f < original.num_facts(); ++f) {
    const Fact& fact = original.fact(f);
    FactId g = parsed->FindFact(
        parsed->GetOrAddNode(original.node_name(fact.source)), fact.label,
        parsed->GetOrAddNode(original.node_name(fact.target)));
    ASSERT_NE(g, -1);
    EXPECT_EQ(parsed->multiplicity(g), original.multiplicity(f));
    EXPECT_EQ(parsed->IsExogenous(g), original.IsExogenous(f));
  }
}

// Golden round-trip across the whole generator family: serialize → parse
// → serialize must be byte-identical. Exercises name quoting, multiplicity
// rendering, and parse/serialize ordering agreement on every shape the
// workload subsystem can draw.
TEST(SerializationTest, GeneratorOutputsRoundTripByteIdentical) {
  std::vector<char> labels = {'a', 'b', 'x'};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<std::pair<const char*, GraphDb>> cases;
    cases.emplace_back("random", RandomGraphDb(&rng, 7, 20, labels, 4));
    cases.emplace_back("layered-flow",
                       LayeredFlowDb(&rng, 2, 3, 3, 2, 0.5, 3));
    cases.emplace_back("path", PathDb("axxb"));
    cases.emplace_back("word-soup",
                       WordSoupDb(&rng, {"ab", "axb"}, 3, labels, 5, 2));
    cases.emplace_back("dangling",
                       DanglingPairsDb(&rng, 6, 8, labels, 'x', 'y', 3, 2));
    cases.emplace_back("chain", RandomChainDb(&rng, 9, labels, 3));
    cases.emplace_back("cycle", CycleDb(&rng, 6, labels, 3));
    cases.emplace_back("grid", GridDb(&rng, 3, 4, labels, 2));
    cases.emplace_back("dag-layers",
                       DagLayersDb(&rng, 4, 3, 0.4, labels, 2));
    cases.emplace_back("scale-free", ScaleFreeDb(&rng, 10, 2, labels, 2));
    cases.emplace_back("kronecker", KroneckerDb(&rng, 3, 15, labels, 3));
    for (auto& [name, db] : cases) {
      if (db.num_facts() > 1) db.SetExogenous(db.num_facts() / 2);
      std::string first = SerializeGraphDb(db);
      Result<GraphDb> parsed = ParseGraphDb(first);
      ASSERT_TRUE(parsed.ok())
          << name << " seed " << seed << ": " << parsed.status();
      std::string second = SerializeGraphDb(*parsed);
      EXPECT_EQ(first, second) << name << " seed " << seed;
    }
  }
}

// The new generator families are deterministic in the seed: same seed,
// same bytes.
TEST(SerializationTest, GeneratorsAreSeedDeterministic) {
  std::vector<char> labels = {'a', 'b', 'c'};
  for (int round = 0; round < 2; ++round) {
    Rng rng1(99);
    Rng rng2(99);
    EXPECT_EQ(SerializeGraphDb(ScaleFreeDb(&rng1, 12, 2, labels, 3)),
              SerializeGraphDb(ScaleFreeDb(&rng2, 12, 2, labels, 3)));
    EXPECT_EQ(SerializeGraphDb(KroneckerDb(&rng1, 4, 20, labels, 3)),
              SerializeGraphDb(KroneckerDb(&rng2, 4, 20, labels, 3)));
    EXPECT_EQ(SerializeGraphDb(DagLayersDb(&rng1, 3, 3, 0.5, labels, 2)),
              SerializeGraphDb(DagLayersDb(&rng2, 3, 3, 0.5, labels, 2)));
  }
}

}  // namespace
}  // namespace rpqres
