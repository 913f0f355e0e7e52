// Tests for the three extensions beyond the paper's core algorithms:
//  * exogenous facts (deletion cost +∞; Thm 2.2 remark),
//  * fixed-endpoint resilience for local languages (Section 8's
//    non-Boolean setting, via the endpoint-agnostic Thm 3.13 network),
//  * the hypergraph hitting-set solver (the Def 4.7 view of resilience).

#include <gtest/gtest.h>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/language.h"
#include "resilience/bcl_resilience.h"
#include "resilience/exact.h"
#include "resilience/local_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

// ---------------------------------------------------------------- exogenous

TEST(ExogenousTest, CostIsInfinite) {
  GraphDb db = PathDb("ab");
  db.SetExogenous(0);
  EXPECT_EQ(db.Cost(0, Semantics::kSet), kInfiniteCapacity);
  EXPECT_EQ(db.Cost(0, Semantics::kBag), kInfiniteCapacity);
  EXPECT_EQ(db.Cost(1, Semantics::kSet), 1);
  EXPECT_EQ(db.NumExogenous(), 1);
  EXPECT_EQ(db.TotalCost(Semantics::kSet), 1);  // endogenous only
}

TEST(ExogenousTest, FlagSurvivesCopies) {
  GraphDb db = PathDb("ab");
  db.SetExogenous(0);
  EXPECT_TRUE(db.MirrorDb().IsExogenous(0));
  EXPECT_TRUE(db.RemoveFacts({1}).IsExogenous(0));
}

TEST(ExogenousTest, LocalSolverAvoidsExogenousFacts) {
  // a x b where x is exogenous: must cut a or b, not the cheap x.
  GraphDb db;
  NodeId s = db.AddNode(), u = db.AddNode(), v = db.AddNode(),
         t = db.AddNode();
  db.AddFact(s, 'a', u, 10);
  FactId x = db.AddFact(u, 'x', v, 1);
  db.AddFact(v, 'b', t, 5);
  db.SetExogenous(x);
  Result<ResilienceResult> r =
      ComputeResilience(Language::MustFromRegexString("ax*b"), db,
                        Semantics::kBag,
                        {.method = ResilienceMethod::kLocalFlow});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->value, 5);
  EXPECT_EQ(r->contingency, (std::vector<FactId>{2}));
}

TEST(ExogenousTest, FullyExogenousMatchIsInfinite) {
  GraphDb db = PathDb("ab");
  db.SetExogenous(0);
  db.SetExogenous(1);
  Language lang = Language::MustFromRegexString("ab");
  for (ResilienceMethod method :
       {ResilienceMethod::kLocalFlow, ResilienceMethod::kExact,
        ResilienceMethod::kBruteForce}) {
    Result<ResilienceResult> r =
        ComputeResilience(lang, db, Semantics::kSet, {.method = method});
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r->infinite);
    EXPECT_TRUE(
        VerifyResilienceResult(lang, db, Semantics::kSet, *r).ok());
  }
}

TEST(ExogenousTest, BclForcedExogenousIsInfinite) {
  // L = a|bc forces the removal of every a-fact; an exogenous a-fact
  // therefore makes the query unfalsifiable.
  GraphDb db = PathDb("a");
  db.SetExogenous(0);
  Language lang = Language::MustFromRegexString("a|bc");
  Result<ResilienceResult> r = ComputeResilience(
      lang, db, Semantics::kSet, {.method = ResilienceMethod::kBclFlow});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->infinite);
  EXPECT_TRUE(VerifyResilienceResult(lang, db, Semantics::kSet, *r).ok());
}

TEST(ExogenousTest, RandomizedAgainstBruteForce) {
  struct Case {
    const char* regex;
    std::vector<char> labels;
    ResilienceMethod method;
  };
  std::vector<Case> cases = {
      {"ax*b", {'a', 'x', 'b'}, ResilienceMethod::kLocalFlow},
      {"ab|ad|cd", {'a', 'b', 'c', 'd'}, ResilienceMethod::kLocalFlow},
      {"ab|bc", {'a', 'b', 'c'}, ResilienceMethod::kBclFlow},
      {"aa", {'a'}, ResilienceMethod::kExact},
  };
  for (const Case& c : cases) {
    Language lang = Language::MustFromRegexString(c.regex);
    for (int seed = 1; seed <= 8; ++seed) {
      Rng rng(seed * 997);
      GraphDb db = RandomGraphDb(&rng, 5, 10, c.labels, 3);
      // Mark ~a third of facts exogenous.
      for (FactId f = 0; f < db.num_facts(); ++f) {
        if (rng.NextChance(1, 3)) db.SetExogenous(f);
      }
      for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
        Result<ResilienceResult> solver = ComputeResilience(
            lang, db, semantics, {.method = c.method});
        Result<ResilienceResult> brute =
            SolveBruteForceResilience(lang, db, semantics);
        ASSERT_TRUE(solver.ok()) << c.regex << ": " << solver.status();
        ASSERT_TRUE(brute.ok()) << brute.status();
        EXPECT_EQ(solver->infinite, brute->infinite)
            << c.regex << " seed " << seed;
        if (!solver->infinite) {
          EXPECT_EQ(solver->value, brute->value)
              << c.regex << " seed " << seed << "\n"
              << db.ToString();
        }
        EXPECT_TRUE(
            VerifyResilienceResult(lang, db, semantics, *solver).ok());
      }
    }
  }
}

// ---------------------------------------------------------- fixed endpoints

TEST(FixedEndpointTest, EvaluatesToTrueBetween) {
  GraphDb db = PathDb("axb");  // nodes 0..3
  LabelIndex index(db);
  Dfa query = Language::MustFromRegexString("ax*b").min_dfa();
  EXPECT_TRUE(EvaluatesToTrueBetween(db, index, query, 0, 3));
  EXPECT_FALSE(EvaluatesToTrueBetween(db, index, query, 1, 3));
  EXPECT_FALSE(EvaluatesToTrueBetween(db, index, query, 0, 2));
  // ε ∈ L: empty walk only at coinciding endpoints.
  Dfa star = Language::MustFromRegexString("x*").min_dfa();
  EXPECT_TRUE(EvaluatesToTrueBetween(db, index, star, 2, 2));
  EXPECT_FALSE(EvaluatesToTrueBetween(db, index, star, 0, 3));
  EXPECT_TRUE(EvaluatesToTrueBetween(db, index, star, 1, 2));  // the x edge
}

TEST(FixedEndpointTest, ResilienceBasic) {
  // Two parallel a x b chains s→t; plus an unrelated chain elsewhere.
  GraphDb db;
  NodeId s = db.AddNode("s"), t = db.AddNode("t");
  NodeId u1 = db.AddNode(), v1 = db.AddNode();
  db.AddFact(s, 'a', u1, 1);
  db.AddFact(u1, 'x', v1, 1);
  db.AddFact(v1, 'b', t, 1);
  NodeId u2 = db.AddNode(), v2 = db.AddNode();
  db.AddFact(s, 'a', u2, 1);
  db.AddFact(u2, 'x', v2, 1);
  db.AddFact(v2, 'b', t, 1);
  // Unrelated a x b not between s and t.
  NodeId p = db.AddNode(), q = db.AddNode(), w = db.AddNode(),
         z = db.AddNode();
  db.AddFact(p, 'a', q, 1);
  db.AddFact(q, 'x', w, 1);
  db.AddFact(w, 'b', z, 1);

  Language lang = Language::MustFromRegexString("ax*b");
  Result<ResilienceResult> r = SolveLocalResilienceFixedEndpoints(
      lang, db, s, t, Semantics::kSet);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->value, 2);  // one cut per parallel chain; stranger ignored
  // Boolean resilience by contrast must also kill the stranger.
  Result<ResilienceResult> boolean = ComputeResilience(
      lang, db, Semantics::kSet, {.method = ResilienceMethod::kLocalFlow});
  ASSERT_TRUE(boolean.ok());
  EXPECT_EQ(boolean->value, 3);
}

TEST(FixedEndpointTest, EpsilonCases) {
  GraphDb db = PathDb("x");
  Language star = Language::MustFromRegexString("x*");
  Result<ResilienceResult> same = SolveLocalResilienceFixedEndpoints(
      star, db, 0, 0, Semantics::kSet);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->infinite);  // the empty walk cannot be removed
  Result<ResilienceResult> diff = SolveLocalResilienceFixedEndpoints(
      star, db, 0, 1, Semantics::kSet);
  ASSERT_TRUE(diff.ok());
  EXPECT_FALSE(diff->infinite);
  EXPECT_EQ(diff->value, 1);  // cut the x edge
}

TEST(FixedEndpointTest, InvalidEndpointsRejected) {
  GraphDb db = PathDb("ab");
  Result<ResilienceResult> r = SolveLocalResilienceFixedEndpoints(
      Language::MustFromRegexString("ab"), db, 0, 99, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(FixedEndpointTest, RandomizedAgainstBruteForce) {
  Language lang = Language::MustFromRegexString("ax*b");
  for (int seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 11);
    GraphDb db = RandomGraphDb(&rng, 5, 10, {'a', 'x', 'b'}, 3);
    NodeId s = static_cast<NodeId>(rng.NextBelow(db.num_nodes()));
    NodeId t = static_cast<NodeId>(rng.NextBelow(db.num_nodes()));
    for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
      Result<ResilienceResult> flow = SolveLocalResilienceFixedEndpoints(
          lang, db, s, t, semantics);
      Result<ResilienceResult> brute = SolveBruteForceResilienceBetween(
          lang, db, s, t, semantics);
      ASSERT_TRUE(flow.ok()) << flow.status();
      ASSERT_TRUE(brute.ok()) << brute.status();
      ASSERT_EQ(flow->infinite, brute->infinite) << seed;
      if (!flow->infinite) {
        EXPECT_EQ(flow->value, brute->value)
            << "seed " << seed << " s=" << s << " t=" << t << "\n"
            << db.ToString();
      }
      // The witness must falsify the *endpoint-constrained* query.
      if (!flow->infinite) {
        std::vector<bool> removed(db.num_facts(), false);
        for (FactId f : flow->contingency) removed[f] = true;
        EXPECT_FALSE(EvaluatesToTrueBetween(db, LabelIndex(db),
                                            lang.min_dfa(), s, t, &removed));
      }
    }
  }
}

TEST(FixedEndpointTest, RejectsIfRewritingWouldBeNeeded) {
  // a|aa: not local itself; IF-rewriting is unsound with fixed endpoints,
  // so the solver must refuse rather than silently answer for IF(L).
  GraphDb db = PathDb("aa");
  Result<ResilienceResult> r = SolveLocalResilienceFixedEndpoints(
      Language::MustFromRegexString("a|aa"), db, 0, 2, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------- hitting-set solver

TEST(HittingSetSolverTest, MatchesExactOnPaperLanguages) {
  struct Case {
    const char* regex;
    std::vector<char> labels;
  };
  for (const Case& c : std::vector<Case>{
           {"aa", {'a'}},
           {"ab|bc", {'a', 'b', 'c'}},
           {"axb|cxd", {'a', 'b', 'c', 'd', 'x'}},
           {"ab|bc|ca", {'a', 'b', 'c'}},
           {"abc|bcd", {'a', 'b', 'c', 'd'}}}) {
    Language lang = Language::MustFromRegexString(c.regex);
    for (int seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 53);
      GraphDb db = RandomGraphDb(&rng, 5, 9, c.labels, 3);
      for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
        Result<ResilienceResult> hs =
            SolveHittingSetResilience(lang, db, semantics);
        Result<ResilienceResult> exact =
            SolveExactResilience(lang, db, semantics);
        ASSERT_TRUE(hs.ok()) << c.regex << ": " << hs.status();
        ASSERT_TRUE(exact.ok()) << exact.status();
        EXPECT_EQ(hs->value, exact->value)
            << c.regex << " seed " << seed << "\n"
            << db.ToString();
        EXPECT_TRUE(
            VerifyResilienceResult(lang, db, semantics, *hs).ok());
      }
    }
  }
}

TEST(HittingSetSolverTest, InfiniteLanguageOnAcyclicDb) {
  GraphDb db = PathDb("axxb");
  Result<ResilienceResult> r = SolveHittingSetResilience(
      Language::MustFromRegexString("ax*b"), db, Semantics::kSet);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->value, 1);
}

TEST(HittingSetSolverTest, InfiniteLanguageOnCyclicDbRejected) {
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'x', v);
  db.AddFact(v, 'x', u);
  Result<ResilienceResult> r = SolveHittingSetResilience(
      Language::MustFromRegexString("ax*b"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
}

TEST(HittingSetSolverTest, ExogenousMakesMatchUnhittable) {
  GraphDb db = PathDb("aa");
  db.SetExogenous(0);
  db.SetExogenous(1);
  Result<ResilienceResult> r = SolveHittingSetResilience(
      Language::MustFromRegexString("aa"), db, Semantics::kSet);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->infinite);
}

}  // namespace
}  // namespace rpqres
