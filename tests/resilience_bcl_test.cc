// Tests for Proposition 7.6's BCL resilience solver: hand-checked
// instances, forward/reversed word wiring, single-letter preprocessing,
// randomized cross-checks against brute force, and the contracted network
// against the proof's network with its terminal hookups.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flow/residual_graph.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "resilience/bcl_resilience.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace {

ResilienceResult MustSolve(const char* regex, const GraphDb& db,
                           Semantics semantics) {
  Result<ResilienceResult> r = SolveBclResilience(
      Language::MustFromRegexString(regex), db, semantics);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(BclResilienceTest, SingleMatchPerWord) {
  // ab|bc on a path a b c: the b-fact hits both matches.
  GraphDb db = PathDb("abc");
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
  ASSERT_EQ(r.contingency.size(), 1u);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'b');
}

TEST(BclResilienceTest, DisjointMatches) {
  GraphDb db;
  // Two separate ab paths and one bc path.
  for (int i = 0; i < 2; ++i) {
    NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
    db.AddFact(u, 'a', v);
    db.AddFact(v, 'b', w);
  }
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  db.AddFact(u, 'b', v);
  db.AddFact(v, 'c', w);
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kSet);
  EXPECT_EQ(r.value, 3);
}

TEST(BclResilienceTest, ReversedWordWiring) {
  // bc is a *reversed* word under the bipartition of ab|bc; check a pure
  // bc instance still cuts correctly with weights.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  db.AddFact(u, 'b', v, 5);
  db.AddFact(v, 'c', w, 2);
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kBag);
  EXPECT_EQ(r.value, 2);
  EXPECT_EQ(db.fact(r.contingency[0]).label, 'c');
}

TEST(BclResilienceTest, FourWordCycleLanguage) {
  // Example 7.3's BCL with an even endpoint cycle.
  GraphDb db = PathDb("axyb");
  ResilienceResult r =
      MustSolve("axyb|bztc|cd|dea", db, Semantics::kSet);
  EXPECT_EQ(r.value, 1);
}

TEST(BclResilienceTest, SingleLetterWordsForced) {
  // IF(a|ab|bc)… use a chain language with a one-letter word directly:
  // L = a|bc: every a-fact must go; bc matches cut at min side.
  GraphDb db;
  NodeId u = db.AddNode(), v = db.AddNode(), w = db.AddNode();
  db.AddFact(u, 'a', v, 4);
  db.AddFact(v, 'a', u, 2);
  db.AddFact(u, 'b', v, 3);
  db.AddFact(v, 'c', w, 1);
  ResilienceResult r = MustSolve("a|bc", db, Semantics::kBag);
  EXPECT_EQ(r.value, 4 + 2 + 1);
  Status check = VerifyResilienceResult(
      Language::MustFromRegexString("a|bc"), db, Semantics::kBag, r);
  EXPECT_TRUE(check.ok()) << check;
}

TEST(BclResilienceTest, EpsilonIsInfinite) {
  GraphDb db = PathDb("ab");
  ResilienceResult r = MustSolve("(ab|bc)?", db, Semantics::kSet);
  EXPECT_TRUE(r.infinite);
}

TEST(BclResilienceTest, EmptyLanguageIsZero) {
  GraphDb db = PathDb("ab");
  Language empty = Language::FromWords({});
  Result<ResilienceResult> r =
      SolveBclResilience(empty, db, Semantics::kSet);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->value, 0);
}

TEST(BclResilienceTest, RejectsNonChain) {
  GraphDb db = PathDb("aa");
  Result<ResilienceResult> r = SolveBclResilience(
      Language::MustFromRegexString("aa"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BclResilienceTest, RejectsNonBipartiteChain) {
  GraphDb db = PathDb("abc");
  Result<ResilienceResult> r = SolveBclResilience(
      Language::MustFromRegexString("ab|bc|ca"), db, Semantics::kSet);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bipartite"), std::string::npos);
}

TEST(BclResilienceTest, InertLabelsIgnored) {
  GraphDb db = PathDb("ab");
  NodeId u = db.AddNode(), v = db.AddNode();
  db.AddFact(u, 'z', v, 100);
  ResilienceResult r = MustSolve("ab|bc", db, Semantics::kBag);
  EXPECT_EQ(r.value, 1);
}

struct BclCase {
  const char* regex;
  std::vector<char> labels;
};

std::vector<BclCase> BclCases() {
  return {BclCase{"ab|bc", {'a', 'b', 'c'}},
          BclCase{"axb|byc", {'a', 'b', 'c', 'x', 'y'}},
          BclCase{"ab|cd", {'a', 'b', 'c', 'd'}},
          BclCase{"a|bc", {'a', 'b', 'c'}},
          BclCase{"axyb|bztc|cd|dea",
                  {'a', 'b', 'c', 'd', 'e', 'x', 'y', 'z', 't'}}};
}

class BclVsBruteForceTest
    : public ::testing::TestWithParam<std::tuple<BclCase, int>> {};

TEST_P(BclVsBruteForceTest, AgreesWithBruteForce) {
  const auto& [c, seed] = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Rng rng(seed * 31);
  GraphDb db = RandomGraphDb(&rng, 5, 11, c.labels, 3);
  for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
    Result<ResilienceResult> flow = SolveBclResilience(lang, db, semantics);
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
    Sweep, BclVsBruteForceTest,
    ::testing::Combine(::testing::ValuesIn(BclCases()),
                       ::testing::Range(1, 9)));

// The Prp 7.6 network as the proof states it: a start and an end vertex
// per relevant fact, the word wiring, and infinite hookups from the
// source to the start of every source-partition fact and from the end of
// every target-partition fact to the target.
ResilienceResult SolveBclOnHookedNetwork(const BclTables& tables,
                                         const GraphDb& db,
                                         Semantics semantics) {
  LabelIndex index(db);
  ResilienceResult result;
  Capacity forced_cost = 0;
  for (char label : tables.forced_labels) {
    for (FactId f : index.Facts(label)) {
      if (db.IsExogenous(f)) {
        result.infinite = true;
        return result;  // the contingency is meaningless
      }
      forced_cost += db.Cost(f, semantics);
      result.contingency.push_back(f);
    }
  }
  ResidualGraph network;
  network.Reset(2);
  network.SetSource(0);
  network.SetTarget(1);
  std::vector<int> start_of(db.num_facts(), -1), end_of(db.num_facts(), -1);
  std::vector<FactId> fact_of_edge;
  for (char label : tables.relevant_labels) {
    for (FactId f : index.Facts(label)) {
      start_of[f] = network.AddVertex();
      end_of[f] = network.AddVertex();
      network.AddEdge(start_of[f], end_of[f], db.Cost(f, semantics));
      fact_of_edge.push_back(f);
    }
  }
  for (const BclTables::Word& word : tables.long_words) {
    const std::string& w = word.letters;
    for (size_t i = 0; i + 1 < w.size(); ++i) {
      for (FactId f1 : index.Facts(w[i])) {
        for (FactId f2 : index.FactsFrom(w[i + 1], db.fact(f1).target)) {
          if (word.forward) {
            network.AddEdge(end_of[f1], start_of[f2], kInfiniteCapacity);
          } else {
            network.AddEdge(end_of[f2], start_of[f1], kInfiniteCapacity);
          }
        }
      }
    }
  }
  for (FactId f : fact_of_edge) {
    const int side =
        tables.endpoint_side[static_cast<unsigned char>(db.fact(f).label)];
    if (side == 0) network.AddEdge(0, start_of[f], kInfiniteCapacity);
    if (side == 1) network.AddEdge(end_of[f], 1, kInfiniteCapacity);
  }
  const MinCutView& cut = network.Solve();
  if (cut.infinite) {
    result.infinite = true;
    return result;
  }
  result.value = forced_cost + cut.value;
  for (int32_t edge : cut.cut_edges) {
    result.contingency.push_back(fact_of_edge[edge]);
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  return result;
}

class BclHookedNetworkTest
    : public ::testing::TestWithParam<std::tuple<BclCase, int>> {};

// Contracting the source- and target-partition fact ends into the
// terminals keeps every finite cut, so the solver returns the hooked
// network's value and its cut closest to the source, fact for fact.
TEST_P(BclHookedNetworkTest, ContractedNetworkMatchesHookedNetwork) {
  const auto& [c, seed] = GetParam();
  Result<BclTables> tables = BuildBclTables(
      InfixFreeSublanguage(Language::MustFromRegexString(c.regex)));
  ASSERT_TRUE(tables.ok()) << tables.status();
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(std::string(c.regex) + " seed " + std::to_string(seed) +
                 " round " + std::to_string(round));
    Rng rng(seed * 1009 + round);
    GraphDb db = RandomGraphDb(&rng, 12 + 3 * round, 30 + 12 * round,
                               c.labels, 4);
    // Exogenous facts in every third database.
    if (round % 3 == 2) {
      for (FactId f = 0; f < db.num_facts(); ++f) {
        if (rng.NextBelow(8) == 0) db.SetExogenous(f);
      }
    }
    for (Semantics semantics : {Semantics::kSet, Semantics::kBag}) {
      ResilienceResult reference =
          SolveBclOnHookedNetwork(*tables, db, semantics);
      ResilienceResult solved = SolveBclWithTables(*tables, db, semantics);
      ASSERT_EQ(solved.infinite, reference.infinite);
      if (reference.infinite) continue;
      EXPECT_EQ(solved.value, reference.value);
      EXPECT_EQ(solved.contingency, reference.contingency);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BclHookedNetworkTest,
    ::testing::Combine(::testing::ValuesIn(BclCases()),
                       ::testing::Range(1, 9)));

}  // namespace
}  // namespace rpqres
