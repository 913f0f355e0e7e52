// Tests for Proposition 7.9's one-dangling resilience solver: the split
// network, κ accounting, signed z-capacities, both split sides (the
// paper's case and the mirror case), versioned databases, and randomized
// cross-checks against brute force.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "lang/language.h"
#include "resilience/exact.h"
#include "resilience/one_dangling_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

ResilienceResult MustSolve(const char* regex, const GraphDb& db,
                           Semantics semantics) {
  Result<ResilienceResult> r =
      ComputeResilience(Language::MustFromRegexString(regex), db, semantics,
                        {.method = ResilienceMethod::kOneDanglingFlow});
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(OneDanglingResilienceTest, PureXyPair) {
  // L = xy alone on a single x→y walk: cut one fact.
  GraphDb db = PathDb("xy");
  ResilienceResult r = MustSolve("xy", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
}

TEST(OneDanglingResilienceTest, XyChoosesCheaperSide) {
  // Star of x-facts into v (costs 1+1) and one expensive y out (cost 5):
  // cutting the x side wins; and vice versa.
  GraphDb db;
  NodeId a = db.AddNode(), b = db.AddNode(), v = db.AddNode(),
         w = db.AddNode();
  db.AddFact(a, 'x', v, 1);
  db.AddFact(b, 'x', v, 1);
  db.AddFact(v, 'y', w, 5);
  ResilienceResult r = MustSolve("xy", db, Semantics::kBag);
  EXPECT_EQ(r.value, 2);
  EXPECT_EQ(r.contingency.size(), 2u);

  GraphDb db2;
  NodeId a2 = db2.AddNode(), v2 = db2.AddNode(), w2 = db2.AddNode(),
         u2 = db2.AddNode();
  db2.AddFact(a2, 'x', v2, 5);
  db2.AddFact(v2, 'y', w2, 1);
  db2.AddFact(v2, 'y', u2, 1);
  ResilienceResult r2 = MustSolve("xy", db2, Semantics::kBag);
  EXPECT_EQ(r2.value, 2);
}

TEST(OneDanglingResilienceTest, BaseAndDanglingInteract) {
  // abc|be: the b-fact participates in both abc and be matches.
  GraphDb db;
  NodeId n0 = db.AddNode(), n1 = db.AddNode(), n2 = db.AddNode(),
         n3 = db.AddNode(), n4 = db.AddNode();
  db.AddFact(n0, 'a', n1);
  db.AddFact(n1, 'b', n2);
  db.AddFact(n2, 'c', n3);
  db.AddFact(n2, 'e', n4);
  // Cutting the single b-fact falsifies both disjuncts.
  ResilienceResult r = MustSolve("abc|be", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'b');
}

TEST(OneDanglingResilienceTest, XInBaseCaseAxStarBXd) {
  // ax*b|xd: x-facts serve both the Kleene part and the dangling xd.
  GraphDb db;
  NodeId s = db.AddNode(), u = db.AddNode(), v = db.AddNode(),
         t = db.AddNode(), d = db.AddNode();
  db.AddFact(s, 'a', u);
  db.AddFact(u, 'x', v);
  db.AddFact(v, 'b', t);
  db.AddFact(v, 'd', d);
  // Cutting the x-fact falsifies axb and xd at once (ab is not a walk:
  // a ends at u, b starts at v).
  ResilienceResult r = MustSolve("ax*b|xd", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'x');
}

TEST(OneDanglingResilienceTest, MirrorOnlyDecomposition) {
  // abc|ea: only x = e is fresh (y = a is in the base), so the solver must
  // go through the mirror reduction of Prp 6.3.
  GraphDb db;
  NodeId n0 = db.AddNode(), n1 = db.AddNode(), n2 = db.AddNode(),
         n3 = db.AddNode(), n4 = db.AddNode();
  db.AddFact(n0, 'a', n1);
  db.AddFact(n1, 'b', n2);
  db.AddFact(n2, 'c', n3);
  db.AddFact(n4, 'e', n0);  // e into the a-source: walk e a exists
  ResilienceResult r = MustSolve("abc|ea", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'a');
  Status check = VerifyResilienceResult(
      Language::MustFromRegexString("abc|ea"), db, Semantics::kSet, r);
  EXPECT_TRUE(check.ok()) << check;
}

TEST(OneDanglingResilienceTest, RejectsNonOneDangling) {
  GraphDb db = PathDb("aa");
  Result<ResilienceResult> r =
      ComputeResilience(Language::MustFromRegexString("aa"), db,
                        Semantics::kSet,
                        {.method = ResilienceMethod::kOneDanglingFlow});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OneDanglingResilienceTest, XySelfLoopNode) {
  // x and y edges around the same node, including a y back-edge.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'x', v, 2);
  db.AddFact(v, 'y', u, 3);
  ResilienceResult r = MustSolve("xy", db, Semantics::kBag);
  EXPECT_EQ(r.value, 2);
}

TEST(OneDanglingResilienceTest, OverlayIsSolvedInItsOwnIdSpace) {
  // A versioned database is solved in place, through its own index: the
  // witness names the overlay's fact ids, never a dead one, and the value
  // matches brute force on the flat materialization. abc|be splits b at
  // targets, abc|ea splits a at sources.
  Rng rng(17);
  auto base = std::make_shared<const GraphDb>(
      RandomGraphDb(&rng, 6, 16, {'a', 'b', 'c', 'e'}, 3));
  GraphDb overlay = GraphDb::MakeOverlay(base);
  for (FactId f : {0, 3, 7}) {
    const Fact& fact = base->fact(f);
    ASSERT_TRUE(overlay.RemoveFact(fact.source, fact.label, fact.target).ok());
  }
  overlay.AddFact(0, 'b', 1, 2);
  overlay.AddFact(1, 'e', 2);
  overlay.AddFact(2, 'a', 0, 3);
  const GraphDb flat = overlay.Compact();
  for (const char* regex : {"abc|be", "abc|ea"}) {
    Language lang = Language::MustFromRegexString(regex);
    for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
      SCOPED_TRACE(std::string(regex) +
                   (semantics == Semantics::kSet ? " set" : " bag"));
      Result<ResilienceResult> flow =
          ComputeResilience(lang, overlay, semantics,
                            {.method = ResilienceMethod::kOneDanglingFlow});
      Result<ResilienceResult> brute =
          SolveBruteForceResilience(lang, flat, semantics);
      ASSERT_TRUE(flow.ok()) << flow.status();
      ASSERT_TRUE(brute.ok()) << brute.status();
      EXPECT_EQ(flow->value, brute->value);
      Status check = VerifyResilienceResult(lang, overlay, semantics, *flow);
      EXPECT_TRUE(check.ok()) << check;
    }
  }
}

struct OneDanglingCase {
  const char* regex;
  std::vector<char> labels;
};

class OneDanglingVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<OneDanglingCase, int>> {};

TEST_P(OneDanglingVsBruteForceTest, AgreesWithBruteForce) {
  const auto& [c, seed] = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Rng rng(seed * 77 + 5);
  GraphDb db = RandomGraphDb(&rng, 5, 11, c.labels, 3);
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> flow = ComputeResilience(
        lang, db, semantics, {.method = ResilienceMethod::kOneDanglingFlow});
    Result<ResilienceResult> brute =
        SolveBruteForceResilience(lang, db, semantics);
    ASSERT_TRUE(flow.ok()) << flow.status();
    ASSERT_TRUE(brute.ok()) << brute.status();
    EXPECT_EQ(flow->value, brute->value)
        << c.regex << " seed " << seed << " semantics "
        << (semantics == Semantics::kSet ? "set" : "bag") << "\n"
        << db.ToString();
    Status check = VerifyResilienceResult(lang, db, semantics, *flow);
    EXPECT_TRUE(check.ok()) << check;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneDanglingVsBruteForceTest,
    ::testing::Combine(
        ::testing::Values(
            OneDanglingCase{"xy", {'x', 'y', 'z'}},
            OneDanglingCase{"abc|be", {'a', 'b', 'c', 'e'}},
            OneDanglingCase{"abcd|be", {'a', 'b', 'c', 'd', 'e'}},
            OneDanglingCase{"ax*b|xd", {'a', 'x', 'b', 'd'}},
            OneDanglingCase{"abc|ea", {'a', 'b', 'c', 'e'}},
            OneDanglingCase{"abcd|ce", {'a', 'b', 'c', 'd', 'e'}},
            OneDanglingCase{"ab|bc", {'a', 'b', 'c'}}),
        ::testing::Range(1, 11)));

}  // namespace
}  // namespace rpqres
