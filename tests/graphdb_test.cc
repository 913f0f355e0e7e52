// Tests for the graph database substrate: GraphDb, RPQ evaluation
// (product + reachability), witness walks, generators.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/language.h"
#include "util/rng.h"

namespace rpqres {
namespace {

std::vector<FactId> ToVector(std::span<const FactId> facts) {
  return std::vector<FactId>(facts.begin(), facts.end());
}

TEST(GraphDbTest, NodesAndFacts) {
  GraphDb db;
  NodeId u = db.AddNode("u");
  NodeId v = db.AddNode("v");
  FactId f = db.AddFact(u, 'a', v, 3);
  EXPECT_EQ(db.num_nodes(), 2);
  EXPECT_EQ(db.num_facts(), 1);
  EXPECT_EQ(db.fact(f).label, 'a');
  EXPECT_EQ(db.multiplicity(f), 3);
  EXPECT_EQ(db.Cost(f, Semantics::kSet), 1);
  EXPECT_EQ(db.Cost(f, Semantics::kBag), 3);
  EXPECT_EQ(db.node_name(u), "u");
}

TEST(GraphDbTest, DuplicateFactsAccumulate) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  FactId f1 = db.AddFact(u, 'a', v, 2);
  FactId f2 = db.AddFact(u, 'a', v, 5);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(db.num_facts(), 1);
  EXPECT_EQ(db.multiplicity(f1), 7);
  EXPECT_EQ(db.FindFact(u, 'a', v), f1);
  EXPECT_EQ(db.FindFact(v, 'a', u), -1);
}

TEST(GraphDbDeathTest, MultiplicityAboveTheBoundIsABug) {
  // Input paths refuse these with a Status; reaching AddFact with one is
  // a bug in the caller, for a direct add and for an accumulated bump.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  EXPECT_DEATH(db.AddFact(u, 'a', v, kMaxMultiplicity + 1), "kMaxMultiplicity");
  FactId f = db.AddFact(u, 'a', v, kMaxMultiplicity);
  EXPECT_EQ(db.multiplicity(f), kMaxMultiplicity);
  EXPECT_DEATH(db.AddFact(u, 'a', v), "kMaxMultiplicity");
}

TEST(GraphDbTest, GetOrAddNode) {
  GraphDb db;
  NodeId a = db.GetOrAddNode("x");
  NodeId b = db.GetOrAddNode("x");
  NodeId c = db.GetOrAddNode("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(GraphDbTest, AdjacencyAndLabels) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  FactId f1 = db.AddFact(u, 'a', v);
  FactId f2 = db.AddFact(u, 'b', w);
  FactId f3 = db.AddFact(v, 'a', w);
  // The adjacency is the label index: per label, ascending fact ids.
  LabelIndex index(db);
  EXPECT_EQ(ToVector(index.Facts('a')), (std::vector<FactId>{f1, f3}));
  EXPECT_EQ(ToVector(index.FactsFrom('a', u)), (std::vector<FactId>{f1}));
  EXPECT_EQ(ToVector(index.FactsFrom('b', u)), (std::vector<FactId>{f2}));
  EXPECT_EQ(ToVector(index.FactsInto('a', w)), (std::vector<FactId>{f3}));
  EXPECT_EQ(ToVector(index.FactsInto('b', w)), (std::vector<FactId>{f2}));
  EXPECT_EQ(db.Labels(), (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(index.labels(), db.Labels());
  EXPECT_EQ(db.TotalCost(Semantics::kSet), 3);
}

TEST(GraphDbTest, RemoveFactsAndMirror) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  FactId f1 = db.AddFact(u, 'a', v);
  db.AddFact(v, 'b', u, 4);
  GraphDb removed = db.RemoveFacts({f1});
  EXPECT_EQ(removed.num_facts(), 1);
  EXPECT_EQ(removed.fact(0).label, 'b');
  EXPECT_EQ(removed.num_nodes(), 2);

  GraphDb mirrored = db.MirrorDb();
  EXPECT_EQ(mirrored.num_facts(), 2);
  // Fact ids preserved, direction flipped.
  EXPECT_EQ(mirrored.fact(f1).source, v);
  EXPECT_EQ(mirrored.fact(f1).target, u);
  EXPECT_EQ(mirrored.multiplicity(1), 4);
}

TEST(RpqEvalTest, SimplePaths) {
  GraphDb db = PathDb("axxb");
  Language query = Language::MustFromRegexString("ax*b");
  EXPECT_TRUE(EvaluatesToTrue(db, query));
  EXPECT_FALSE(
      EvaluatesToTrue(db, Language::MustFromRegexString("ab|ba")));
  EXPECT_TRUE(
      EvaluatesToTrue(db, Language::MustFromRegexString("xx")));
}

TEST(RpqEvalTest, ExistentialEndpointsAnywhere) {
  // The walk may start mid-graph.
  GraphDb db = PathDb("zzaxb");
  EXPECT_TRUE(
      EvaluatesToTrue(db, Language::MustFromRegexString("axb")));
}

TEST(RpqEvalTest, EpsilonQueryAlwaysTrue) {
  GraphDb empty;
  Language query = Language::MustFromRegexString("a*");
  std::optional<WitnessWalk> walk = ShortestWitnessWalk(empty, query);
  ASSERT_TRUE(walk.has_value());
  EXPECT_TRUE(walk->empty());
}

TEST(RpqEvalTest, EmptyQueryNeverTrue) {
  GraphDb db = PathDb("abc");
  Language empty = Language::FromWords({});
  EXPECT_FALSE(EvaluatesToTrue(db, empty));
  EXPECT_FALSE(ShortestWitnessWalk(db, empty).has_value());
}

TEST(RpqEvalTest, ShortestWitnessIsShortest) {
  // Two ways to satisfy ax*b: a long path and a short one.
  GraphDb db;
  NodeId prev = db.AddNode();
  for (char c : std::string("axxxb")) {
    NodeId next = db.AddNode();
    db.AddFact(prev, c, next);
    prev = next;
  }
  prev = db.AddNode();
  for (char c : std::string("ab")) {
    NodeId next = db.AddNode();
    db.AddFact(prev, c, next);
    prev = next;
  }
  Language query = Language::MustFromRegexString("ax*b");
  std::optional<WitnessWalk> walk = ShortestWitnessWalk(db, query);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->size(), 2u);
  EXPECT_EQ(WalkLabel(db, *walk), "ab");
}

TEST(RpqEvalTest, WalkMayRepeatFacts) {
  // A single x self-loop plus a and b: the walk a x x b reuses the loop.
  GraphDb db;
  NodeId s = db.AddNode(), u = db.AddNode(), t = db.AddNode();
  db.AddFact(s, 'a', u);
  db.AddFact(u, 'x', u);
  db.AddFact(u, 'b', t);
  Language query = Language::MustFromRegexString("axxb");
  std::optional<WitnessWalk> walk = ShortestWitnessWalk(db, query);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(walk->size(), 4u);
  EXPECT_EQ(WalkMatch(*walk).size(), 3u);  // the x fact is used twice
}

TEST(RpqEvalTest, RemovalMaskRespected) {
  GraphDb db = PathDb("ab");
  Language query = Language::MustFromRegexString("ab");
  std::vector<bool> removed(db.num_facts(), false);
  LabelIndex index(db);
  EXPECT_TRUE(EvaluatesToTrue(db, index, query.enfa(), &removed));
  removed[0] = true;
  EXPECT_FALSE(EvaluatesToTrue(db, index, query.enfa(), &removed));
}

TEST(RpqEvalTest, WalkLabelAndMatch) {
  GraphDb db = PathDb("abc");
  Language query = Language::MustFromRegexString("abc");
  std::optional<WitnessWalk> walk = ShortestWitnessWalk(db, query);
  ASSERT_TRUE(walk.has_value());
  EXPECT_EQ(WalkLabel(db, *walk), "abc");
  EXPECT_EQ(WalkMatch(*walk), (std::vector<FactId>{0, 1, 2}));
}

TEST(GeneratorsTest, RandomGraphDbShape) {
  Rng rng(3);
  GraphDb db = RandomGraphDb(&rng, 10, 30, {'a', 'b'}, 5);
  EXPECT_EQ(db.num_nodes(), 10);
  EXPECT_LE(db.num_facts(), 30);  // duplicates merge
  for (FactId f = 0; f < db.num_facts(); ++f) {
    EXPECT_TRUE(db.fact(f).label == 'a' || db.fact(f).label == 'b');
    EXPECT_GE(db.multiplicity(f), 1);
  }
}

TEST(GeneratorsTest, LayeredFlowDbSatisfiesQuery) {
  Rng rng(4);
  GraphDb db = LayeredFlowDb(&rng, 2, 3, 3, 2, 0.5);
  EXPECT_TRUE(
      EvaluatesToTrue(db, Language::MustFromRegexString("ax*b")));
}

TEST(GeneratorsTest, PathDb) {
  GraphDb db = PathDb("abc");
  EXPECT_EQ(db.num_nodes(), 4);
  EXPECT_EQ(db.num_facts(), 3);
  GraphDb empty = PathDb("");
  EXPECT_EQ(empty.num_nodes(), 1);
  EXPECT_EQ(empty.num_facts(), 0);
}

TEST(GeneratorsTest, DeterministicForSeed) {
  Rng rng1(9), rng2(9);
  GraphDb a = RandomGraphDb(&rng1, 8, 20, {'a', 'b', 'c'}, 3);
  GraphDb b = RandomGraphDb(&rng2, 8, 20, {'a', 'b', 'c'}, 3);
  ASSERT_EQ(a.num_facts(), b.num_facts());
  for (FactId f = 0; f < a.num_facts(); ++f) {
    EXPECT_EQ(a.fact(f), b.fact(f));
    EXPECT_EQ(a.multiplicity(f), b.multiplicity(f));
  }
}

}  // namespace
}  // namespace rpqres
