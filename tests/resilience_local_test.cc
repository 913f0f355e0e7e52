// Tests for Theorem 3.13's local-language resilience solver: hand-checked
// instances, trivial cases, multiplicities, and randomized cross-checks
// against the brute-force solver.

#include <gtest/gtest.h>

#include <string>

#include "flow/residual_graph.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "lang/language.h"
#include "lang/ro_enfa.h"
#include "resilience/exact.h"
#include "resilience/local_resilience.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

ResilienceResult MustSolve(const char* regex, const GraphDb& db,
                           Semantics semantics) {
  Result<ResilienceResult> r = SolveLocalResilience(
      Language::MustFromRegexString(regex), db, semantics);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(LocalResilienceTest, SingleWalk) {
  GraphDb db = PathDb("axb");
  ResilienceResult r = MustSolve("ax*b", db, Semantics::kSet);
  EXPECT_FALSE(r.infinite);
  EXPECT_EQ(r.value, 1);
  EXPECT_EQ(r.contingency.size(), 1u);
}

TEST(LocalResilienceTest, QueryAlreadyFalse) {
  GraphDb db = PathDb("ax");  // no b
  ResilienceResult r = MustSolve("ax*b", db, Semantics::kSet);
  EXPECT_EQ(r.value, 0);
  EXPECT_TRUE(r.contingency.empty());
}

TEST(LocalResilienceTest, EmptyDatabase) {
  GraphDb db;
  ResilienceResult r = MustSolve("ax*b", db, Semantics::kSet);
  EXPECT_EQ(r.value, 0);
}

TEST(LocalResilienceTest, EpsilonInLanguageIsInfinite) {
  GraphDb db = PathDb("a");
  ResilienceResult r = MustSolve("a*", db, Semantics::kSet);
  EXPECT_TRUE(r.infinite);
}

TEST(LocalResilienceTest, BagMultiplicitiesPickCheaperCut) {
  // a --x(5)--> but a costs 1: cutting the a-fact is cheaper.
  GraphDb db;
  NodeId s = db.AddNode(), u = db.AddNode(), v = db.AddNode(),
         t = db.AddNode();
  db.AddFact(s, 'a', u, 1);
  db.AddFact(u, 'x', v, 5);
  db.AddFact(v, 'b', t, 7);
  ResilienceResult r = MustSolve("ax*b", db, Semantics::kBag);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'a');
}

TEST(LocalResilienceTest, BottleneckCut) {
  // Two sources, two sinks, one shared x bottleneck.
  GraphDb db;
  NodeId s1 = db.AddNode(), s2 = db.AddNode(), u = db.AddNode(),
         v = db.AddNode(), t1 = db.AddNode(), t2 = db.AddNode();
  db.AddFact(s1, 'a', u, 2);
  db.AddFact(s2, 'a', u, 2);
  db.AddFact(u, 'x', v, 3);
  db.AddFact(v, 'b', t1, 2);
  db.AddFact(v, 'b', t2, 2);
  ResilienceResult r = MustSolve("ax*b", db, Semantics::kBag);
  EXPECT_EQ(r.value, 3);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'x');
}

TEST(LocalResilienceTest, SingleLetterLanguage) {
  // L = a|b: every a/b fact is a match; resilience = total a/b cost.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'a', v, 2);
  db.AddFact(v, 'a', u, 3);
  db.AddFact(u, 'b', v, 1);
  db.AddFact(u, 'c', v, 9);  // inert
  ResilienceResult r = MustSolve("a|b", db, Semantics::kBag);
  EXPECT_EQ(r.value, 6);
  EXPECT_EQ(r.contingency.size(), 3u);
}

TEST(LocalResilienceTest, IfMakesNonLocalSolvable) {
  // L0 = a|aa is not local but IF(L0) = a is (paper, Section 3.2).
  GraphDb db = PathDb("aa");
  ResilienceResult r = MustSolve("a|aa", db, Semantics::kSet);
  EXPECT_EQ(r.value, 2);  // both a-facts are matches of IF = a
}

TEST(LocalResilienceTest, RejectsNonLocal) {
  GraphDb db = PathDb("aa");
  Result<ResilienceResult> r = SolveLocalResilience(
      Language::MustFromRegexString("aa"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LocalResilienceTest, SelfLoopWalks) {
  GraphDb db;
  NodeId s = db.AddNode(), u = db.AddNode(), t = db.AddNode();
  db.AddFact(s, 'a', u);
  db.AddFact(u, 'x', u);  // self loop
  db.AddFact(u, 'b', t);
  ResilienceResult r = MustSolve("ax*b", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  Status check =
      VerifyResilienceResult(Language::MustFromRegexString("ax*b"), db,
                             Semantics::kSet, r);
  EXPECT_TRUE(check.ok()) << check;
}

// The closure bits mark the states whose product pairs the terminals'
// infinite edges reach: those in the ε-closure of an initial state, and
// those that ε-reach a final state. Neither language contains ε, so no
// state carries both.
TEST(LocalResilienceTest, RoTablesMarkTheTerminalClosures) {
  struct Case {
    const char* regex;
    const char* first_letters;  // letters a word can start with
    const char* last_letters;   // letters a word can end with
    const char* letters;
  };
  for (const Case& c : {Case{"ax*b", "a", "b", "axb"},
                        Case{"ab|ad|cd", "ac", "bd", "abcd"}}) {
    SCOPED_TRACE(c.regex);
    Enfa ro = BuildRoEnfa(Language::MustFromRegexString(c.regex))
                  .ValueOrDie();
    RoProductTables t = BuildRoProductTables(ro).ValueOrDie();
    ASSERT_EQ(t.eps_from_initial.size(), static_cast<size_t>(t.num_states));
    ASSERT_EQ(t.eps_to_final.size(), static_cast<size_t>(t.num_states));
    for (int s : t.initial_states) EXPECT_EQ(t.eps_from_initial[s], 1);
    for (int s : t.final_states) EXPECT_EQ(t.eps_to_final[s], 1);
    for (int s = 0; s < t.num_states; ++s) {
      EXPECT_FALSE(t.eps_from_initial[s] && t.eps_to_final[s]) << s;
    }
    const std::string first = c.first_letters, last = c.last_letters;
    for (const char* l = c.letters; *l != '\0'; ++l) {
      SCOPED_TRACE(std::string(1, *l));
      const unsigned char u = static_cast<unsigned char>(*l);
      ASSERT_GE(t.letter_from[u], 0);
      // A letter leaves the initial closure iff a word can start with it,
      // and enters a state that ε-reaches a final one iff a word can end
      // with it. In both languages no letter enters the initial closure
      // or leaves the final one.
      EXPECT_EQ(t.eps_from_initial[t.letter_from[u]],
                first.find(*l) != std::string::npos);
      EXPECT_EQ(t.eps_to_final[t.letter_to[u]],
                last.find(*l) != std::string::npos);
      EXPECT_EQ(t.eps_from_initial[t.letter_to[u]], 0);
      EXPECT_EQ(t.eps_to_final[t.letter_from[u]], 0);
    }
  }
}

TEST(LocalResilienceTest, CombinedComplexityNetworkSize) {
  // The Thm 3.13 bound is 2 + |V|·|S| vertices; the reach/co-reach sweep
  // materializes only live (node, state) pairs, so the built network plus
  // the reported pruning must account for exactly that bound.
  Language lang = Language::MustFromRegexString("ax*b");
  Enfa ro = BuildRoEnfa(lang).ValueOrDie();
  GraphDb db = PathDb("axxb");
  ResilienceResult r =
      SolveLocalResilienceWithRoEnfa(ro, db, Semantics::kSet);
  EXPECT_LE(r.network_vertices, 2 + db.num_nodes() * ro.num_states());
  EXPECT_EQ(r.network_vertices + r.product_vertices_pruned,
            2 + db.num_nodes() * ro.num_states());
  EXPECT_GT(r.product_vertices_pruned, 0)
      << "a path database must have dead product vertices to prune";
}

// Section 1: multi-source, multi-sink MinCut is RES_bag(ax*b). The direct
// encoding of a layered network cuts each fact at its multiplicity: an
// a-fact is an edge from the super-source to its head, a b-fact an edge
// from its tail to the super-target, an x-fact an edge between its ends.
TEST(LocalResilienceTest, MinCutIsBagResilienceOfAxStarB) {
  Rng rng(2024);
  for (int trial = 0; trial < 10; ++trial) {
    GraphDb db = LayeredFlowDb(&rng, 2 + trial % 4, 2 + trial % 5,
                               3 + trial % 3, 2 + trial % 3,
                               0.3 + 0.05 * (trial % 5),
                               /*max_multiplicity=*/12);
    ResidualGraph network;
    const int source = network.AddVertex();
    const int target = network.AddVertex();
    network.SetSource(source);
    network.SetTarget(target);
    std::vector<int> vertex_of(db.num_nodes());
    for (NodeId v = 0; v < db.num_nodes(); ++v) {
      vertex_of[v] = network.AddVertex();
    }
    for (FactId f = 0; f < db.num_facts(); ++f) {
      const Fact& fact = db.fact(f);
      const int from = fact.label == 'a' ? source : vertex_of[fact.source];
      const int to = fact.label == 'b' ? target : vertex_of[fact.target];
      network.AddEdge(from, to, db.multiplicity(f));
    }
    const MinCutView& cut = network.Solve();
    ASSERT_FALSE(cut.infinite) << "trial " << trial;
    ResilienceResult res = MustSolve("ax*b", db, Semantics::kBag);
    EXPECT_FALSE(res.infinite) << "trial " << trial;
    EXPECT_EQ(res.value, cut.value) << "trial " << trial;
  }
}

// Randomized cross-check against brute force, set and bag semantics.
struct LocalCase {
  const char* regex;
  std::vector<char> labels;
};

class LocalVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<LocalCase, int>> {};

TEST_P(LocalVsBruteForceTest, AgreesWithBruteForce) {
  const auto& [c, seed] = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Rng rng(seed);
  GraphDb db = RandomGraphDb(&rng, 5, 11, c.labels, 3);
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> flow =
        SolveLocalResilience(lang, db, semantics);
    Result<ResilienceResult> brute =
        SolveBruteForceResilience(lang, db, semantics);
    ASSERT_TRUE(flow.ok()) << flow.status();
    ASSERT_TRUE(brute.ok()) << brute.status();
    EXPECT_EQ(flow->value, brute->value)
        << c.regex << " seed " << seed << "\n"
        << db.ToString();
    Status check = VerifyResilienceResult(lang, db, semantics, *flow);
    EXPECT_TRUE(check.ok()) << check;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalVsBruteForceTest,
    ::testing::Combine(
        ::testing::Values(LocalCase{"ax*b", {'a', 'x', 'b'}},
                          LocalCase{"ab|ad|cd", {'a', 'b', 'c', 'd'}},
                          LocalCase{"abc|abd", {'a', 'b', 'c', 'd'}},
                          LocalCase{"a|b", {'a', 'b', 'c'}},
                          LocalCase{"a(x|y)*b", {'a', 'x', 'y', 'b'}}),
        ::testing::Range(1, 9)));

}  // namespace
}  // namespace rpqres
