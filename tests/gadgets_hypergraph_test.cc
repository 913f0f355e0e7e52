// Tests for the hypergraph of matches (Def 4.7) and minimum hitting sets.

#include <gtest/gtest.h>

#include "gadgets/hypergraph.h"
#include "graphdb/generators.h"
#include "lang/language.h"
#include "language_sweep.h"

namespace rpqres {
namespace {

TEST(HypergraphOfMatchesTest, AaOnPath) {
  // Path a a a: matches {0,1} and {1,2}.
  GraphDb db = PathDb("aaa");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->num_vertices, 3);
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1}, {1, 2}}));
}

TEST(HypergraphOfMatchesTest, MatchesAreSetsUnderFactReuse) {
  // a self-loop + a: the walk (loop, loop) realizes aa with ONE fact.
  GraphDb db;
  NodeId u = db.AddNode();
  db.AddFact(u, 'a', u);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0}}));
}

TEST(HypergraphOfMatchesTest, UnionLanguage) {
  GraphDb db = PathDb("abc");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("ab|bc"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1}, {1, 2}}));
}

TEST(HypergraphOfMatchesTest, InfiniteLanguageOnDag) {
  GraphDb db = PathDb("axxb");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("ax*b"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1, 2, 3}}));
}

TEST(HypergraphOfMatchesTest, InfiniteLanguageOnCycleRejected) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'x', v);
  db.AddFact(v, 'x', u);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("ax*b"), db);
  EXPECT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kFailedPrecondition);
}

TEST(HypergraphOfMatchesTest, FiniteLanguageOnCycleOk) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'a', v);
  db.AddFact(v, 'a', u);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->edges, (std::vector<std::vector<int>>{{0, 1}}));
}

TEST(HypergraphOfMatchesTest, FiniteLanguageOfMillionsOfWords) {
  // (a|b|c|d)×11 has 4^11 words; the walk bound, 11, is read off the
  // minimal DFA without listing them.
  GraphDb db = PathDb("abcdabcdabcd");
  Result<Hypergraph> h = HypergraphOfMatches(
      Language::MustFromRegexString(RepeatedGroup("(a|b|c|d)", 11)), db);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h->edges,
            (std::vector<std::vector<int>>{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
                                           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                            11}}));
}

TEST(HypergraphOfMatchesTest, NamesRenderFacts) {
  GraphDb db;
  NodeId u = db.AddNode("u"), v = db.AddNode("v");
  db.AddFact(u, 'a', v);
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("a"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->vertex_names[0], "a(u,v)");
  EXPECT_NE(h->ToString().find("a(u,v)"), std::string::npos);
}

TEST(MinimumHittingSetTest, SmallCases) {
  Hypergraph h;
  h.num_vertices = 4;
  h.edges = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(MinimumHittingSetSize(h), 2);  // {1, 2} or {1, 3}
  h.edges = {{0}, {1}, {2}};
  EXPECT_EQ(MinimumHittingSetSize(h), 3);
  h.edges = {};
  EXPECT_EQ(MinimumHittingSetSize(h), 0);
  h.edges = {{0, 1, 2, 3}};
  EXPECT_EQ(MinimumHittingSetSize(h), 1);
  h.edges = {{}};
  EXPECT_EQ(MinimumHittingSetSize(h), -1);  // infeasible
}

TEST(MinimumHittingSetTest, EqualsResilienceOfMatches) {
  // RES_set(Q_L, D) = min hitting set of H_{L,D} by definition.
  GraphDb db = PathDb("aaaa");
  Result<Hypergraph> h =
      HypergraphOfMatches(Language::MustFromRegexString("aa"), db);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(MinimumHittingSetSize(*h), 2);
}

TEST(NormalizeTest, DeduplicatesEdges) {
  Hypergraph h;
  h.num_vertices = 3;
  h.edges = {{2, 1}, {1, 2}, {0}};
  h.Normalize();
  EXPECT_EQ(h.edges, (std::vector<std::vector<int>>{{0}, {1, 2}}));
}

}  // namespace
}  // namespace rpqres
