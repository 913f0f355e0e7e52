// Tests for the condensation rules (Section 4.3) and the odd-path check
// (Def 4.9), including Claim 4.8 (hitting sets preserved).

#include <gtest/gtest.h>

#include "gadgets/condensation.h"
#include "gadgets/hypergraph.h"
#include "graphdb/generators.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "util/rng.h"

namespace rpqres {
namespace {

Hypergraph Make(int n, std::vector<std::vector<int>> edges) {
  Hypergraph h;
  h.num_vertices = n;
  h.edges = std::move(edges);
  h.Normalize();
  return h;
}

TEST(CondensationTest, EdgeDominationRemovesSupersets) {
  Hypergraph h = Make(3, {{0, 1}, {0, 1, 2}});
  CondensationResult r = Condense(h, {});
  // {0,1,2} removed; then 2 is isolated (dominated), 0 ≡ 1 merge.
  EXPECT_EQ(r.condensed.edges.size(), 1u);
  ASSERT_FALSE(r.steps.empty());
}

TEST(CondensationTest, NodeDominationRemovesSubsumedVertex) {
  // E(0) = {e0}, E(1) = {e0, e1}: vertex 0 dominated by 1.
  Hypergraph h = Make(3, {{0, 1}, {1, 2}});
  CondensationResult r = Condense(h, {});
  // After removing 0: edges {1}, {1,2}; {1} ⊆ {1,2} removes the superset;
  // then 2 isolated → removed. A single forced vertex remains.
  EXPECT_EQ(r.condensed.edges,
            (std::vector<std::vector<int>>{{0}}));
  EXPECT_EQ(r.kept_vertices, (std::vector<int>{1}));
}

TEST(CondensationTest, ProtectedVerticesSurvive) {
  Hypergraph h = Make(3, {{0, 1}, {1, 2}});
  CondensationResult r = Condense(h, {0, 2});
  // 0 and 2 are protected; 1 dominates both but they stay: path 0-1-2.
  EXPECT_EQ(r.kept_vertices, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(r.condensed.edges,
            (std::vector<std::vector<int>>{{0, 1}, {1, 2}}));
}

TEST(CondensationTest, PreservesMinimumHittingSet) {
  // Claim 4.8 as a property: condensation never changes the minimum
  // hitting set size.
  std::vector<Hypergraph> cases = {
      Make(4, {{0, 1}, {1, 2}, {2, 3}}),
      Make(5, {{0, 1, 2}, {2, 3}, {3, 4}, {0, 4}}),
      Make(6, {{0, 1}, {0, 1, 2}, {3, 4, 5}, {4}}),
      Make(3, {{0}, {0, 1}, {1, 2}}),
  };
  // And the hypergraphs of matches of two finite languages on random
  // databases of 14, 20 and 26 facts.
  for (const char* regex : {"aa", "abc|bcd"}) {
    Language ifl = InfixFreeSublanguage(Language::MustFromRegexString(regex));
    for (int size : {14, 20, 26}) {
      Rng rng(13 + size);
      GraphDb db = RandomGraphDb(&rng, size / 2, size, ifl.used_letters());
      Result<Hypergraph> matches = HypergraphOfMatches(ifl, db);
      ASSERT_TRUE(matches.ok()) << regex << ": " << matches.status();
      cases.push_back(*std::move(matches));
    }
  }
  for (const Hypergraph& h : cases) {
    CondensationResult r = Condense(h, {});
    EXPECT_EQ(MinimumHittingSetSize(h),
              MinimumHittingSetSize(r.condensed));
  }
}

TEST(CondensationTest, EqualEdgesDeduplicate) {
  Hypergraph h = Make(2, {{0, 1}, {1, 0}});
  CondensationResult r = Condense(h, {0, 1});
  EXPECT_EQ(r.condensed.edges.size(), 1u);
}

TEST(OddPathTest, AcceptsOddPaths) {
  Hypergraph path = Make(4, {{0, 1}, {1, 2}, {2, 3}});
  OddPathCheck check = CheckOddPath(path, 0, 3);
  EXPECT_TRUE(check.is_odd_path) << check.reason;
  EXPECT_EQ(check.path_edges, 3);
  EXPECT_EQ(check.path_vertices, (std::vector<int>{0, 1, 2, 3}));
}

TEST(OddPathTest, RejectsEvenPath) {
  Hypergraph path = Make(3, {{0, 1}, {1, 2}});
  OddPathCheck check = CheckOddPath(path, 0, 2);
  EXPECT_FALSE(check.is_odd_path);
  EXPECT_NE(check.reason.find("even"), std::string::npos);
}

TEST(OddPathTest, RejectsNonPathShapes) {
  // Star.
  EXPECT_FALSE(
      CheckOddPath(Make(4, {{0, 1}, {1, 2}, {1, 3}}), 0, 3).is_odd_path);
  // Cycle attached.
  EXPECT_FALSE(CheckOddPath(Make(5, {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}}),
                            0, 4)
                   .is_odd_path);
  // Disconnected extra edge.
  EXPECT_FALSE(
      CheckOddPath(Make(5, {{0, 1}, {2, 3}, {3, 4}}), 0, 1).is_odd_path);
  // Hyperedge of size 3.
  EXPECT_FALSE(
      CheckOddPath(Make(3, {{0, 1, 2}}), 0, 2).is_odd_path);
  // Endpoint not degree 1.
  EXPECT_FALSE(
      CheckOddPath(Make(3, {{0, 1}, {1, 2}, {0, 2}}), 0, 2).is_odd_path);
  // Same endpoints.
  EXPECT_FALSE(CheckOddPath(Make(2, {{0, 1}}), 0, 0).is_odd_path);
  // Isolated vertex remains.
  EXPECT_FALSE(CheckOddPath(Make(3, {{0, 1}}), 0, 1).is_odd_path);
}

TEST(OddPathTest, SingleEdgeIsOddPath) {
  OddPathCheck check = CheckOddPath(Make(2, {{0, 1}}), 0, 1);
  EXPECT_TRUE(check.is_odd_path);
  EXPECT_EQ(check.path_edges, 1);
}

}  // namespace
}  // namespace rpqres
