// Tests for the graph database substrate: GraphDb, RPQ evaluation
// (product + reachability), witness walks, generators, and the DFA
// product search against the εNFA product search it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "language_sweep.h"
#include "regex/parser.h"
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
  EXPECT_TRUE(EvaluatesToTrue(db, index, query.min_dfa(), &removed));
  removed[0] = true;
  EXPECT_FALSE(EvaluatesToTrue(db, index, query.min_dfa(), &removed));
}

// The product BFS over an εNFA that RPQ evaluation ran before it read the
// minimal DFA, kept as the reference the DFA search is held to. A fact
// move costs one step and an ε-move none: a configuration's whole
// ε-closure joins the BFS level it is reached at, so the first final
// configuration popped ends a walk with the fewest facts. Source and
// target < 0 leave the endpoints free.
std::optional<WitnessWalk> EnfaProductSearch(
    const GraphDb& db, const LabelIndex& index, const Enfa& query,
    const std::vector<bool>* removed_facts, NodeId fixed_source,
    NodeId fixed_target, bool reconstruct) {
  const int num_states = query.num_states();
  auto id = [num_states](NodeId v, int s) { return v * num_states + s; };
  for (int s : query.EpsilonClosure(query.initial_states())) {
    if (query.IsFinal(s) &&
        (fixed_source < 0 || fixed_source == fixed_target)) {
      return WitnessWalk{};
    }
  }
  if (db.num_nodes() == 0) return std::nullopt;

  const int total = db.num_nodes() * num_states;
  std::vector<bool> seen(total, false);
  // parent_fact[p] = fact used to enter p (-1 for ε / start);
  // parent_state[p] = previous product id (-1 for start).
  std::vector<FactId> parent_fact(total, -1);
  std::vector<int> parent_state(total, -1);
  std::vector<std::vector<int>> eps_out(num_states);
  std::vector<std::vector<std::pair<char, int>>> letter_out(num_states);
  for (const EnfaTransition& t : query.transitions()) {
    if (t.symbol == kEpsilonSymbol) {
      eps_out[t.from].push_back(t.to);
    } else {
      letter_out[t.from].push_back({t.symbol, t.to});
    }
  }

  std::queue<int> queue;
  // Marks (v, s) seen and expands its ε-closure at the same BFS level.
  auto push_with_closure = [&](NodeId v, int s, FactId via_fact,
                               int via_state) {
    const int p0 = id(v, s);
    if (seen[p0]) return;
    seen[p0] = true;
    parent_fact[p0] = via_fact;
    parent_state[p0] = via_state;
    queue.push(p0);
    std::vector<int> stack{s};
    while (!stack.empty()) {
      const int state = stack.back();
      stack.pop_back();
      const int p = id(v, state);
      for (int to : eps_out[state]) {
        const int q = id(v, to);
        if (!seen[q]) {
          seen[q] = true;
          parent_fact[q] = -1;  // an ε-step within v consumes no fact
          parent_state[q] = p;
          queue.push(q);
          stack.push_back(to);
        }
      }
    }
  };
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    if (fixed_source >= 0 && v != fixed_source) continue;
    for (int s : query.initial_states()) push_with_closure(v, s, -1, -1);
  }

  while (!queue.empty()) {
    const int p = queue.front();
    queue.pop();
    const NodeId v = p / num_states;
    const int s = p % num_states;
    if (query.IsFinal(s) && (fixed_target < 0 || v == fixed_target)) {
      if (!reconstruct) return WitnessWalk{};
      WitnessWalk walk;
      for (int current = p; current != -1; current = parent_state[current]) {
        if (parent_fact[current] != -1) walk.push_back(parent_fact[current]);
      }
      std::reverse(walk.begin(), walk.end());
      return walk;
    }
    for (auto [symbol, to] : letter_out[s]) {
      for (FactId fid : index.FactsFrom(symbol, v)) {
        if (removed_facts != nullptr && (*removed_facts)[fid]) continue;
        const NodeId target = db.fact(fid).target;
        if (!seen[id(target, to)]) push_with_closure(target, to, fid, p);
      }
    }
  }
  return std::nullopt;
}

// A language of the sweep, the εNFA it was built from, and IF(L) with the
// trimmed εNFA of IF(L)'s minimal DFA.
struct SweepLanguage {
  std::string name;
  Language lang;
  Enfa source;
  Language ifl;
  Enfa ifl_trimmed;
};

SweepLanguage MakeSweepLanguage(std::string name, Language lang,
                                Enfa source) {
  Language ifl = InfixFreeSublanguage(lang);
  Enfa ifl_trimmed = EnfaTrim(DfaToEnfa(ifl.min_dfa()));
  return {std::move(name), std::move(lang), std::move(source),
          std::move(ifl), std::move(ifl_trimmed)};
}

// Seeded graphs of 3-10 nodes over L's letters plus one letter outside
// them. Every third graph is an overlay with one fact tombstoned, so a
// walk through a dead fact would show.
std::vector<GraphDb> SweepGraphs(Rng* rng, const Language& lang) {
  std::vector<char> labels = lang.used_letters();
  labels.push_back('z');
  std::vector<GraphDb> graphs;
  for (int i = 0; i < 3; ++i) {
    const int nodes = 3 + static_cast<int>(rng->NextBelow(8));
    GraphDb db = RandomGraphDb(rng, nodes, 2 * nodes, labels);
    if (i == 2 && db.num_facts() > 0) {
      const Fact dead = db.fact(
          static_cast<FactId>(rng->NextBelow(db.num_facts())));
      GraphDb overlay =
          GraphDb::MakeOverlay(std::make_shared<const GraphDb>(db));
      EXPECT_TRUE(overlay.RemoveFact(dead.source, dead.label, dead.target)
                      .ok());
      db = std::move(overlay);
    }
    graphs.push_back(std::move(db));
  }
  return graphs;
}

// Expects `walk` to be a chain of live, unremoved facts labelled by a word
// of L.
void ExpectValidWalk(const GraphDb& db, const std::vector<bool>& removed,
                     const Language& lang, const WitnessWalk& walk,
                     const std::string& context) {
  for (size_t i = 0; i < walk.size(); ++i) {
    const FactId f = walk[i];
    ASSERT_TRUE(f >= 0 && f < db.num_facts()) << context;
    EXPECT_TRUE(db.IsLive(f)) << context << ": fact " << f << " is dead";
    EXPECT_FALSE(removed[f]) << context << ": fact " << f << " is removed";
    if (i > 0) {
      EXPECT_EQ(db.fact(walk[i - 1]).target, db.fact(f).source)
          << context << ": facts " << walk[i - 1] << ", " << f
          << " do not chain";
    }
  }
  EXPECT_TRUE(lang.Contains(WalkLabel(db, walk)))
      << context << ": label " << WalkLabel(db, walk) << " is not in L";
}

// Every database, removal mask and endpoint pair of one language: the DFA
// search against the εNFA search, on L and on IF(L).
void CheckAgainstEnfaSearch(const SweepLanguage& sweep, Rng* rng) {
  for (const GraphDb& db : SweepGraphs(rng, sweep.lang)) {
    const LabelIndex index(db);
    const std::string db_text = db.ToString();
    for (int m = 0; m < 3; ++m) {
      // Mask 0 removes nothing, mask 1 about a quarter, mask 2 about half.
      std::vector<bool> removed(db.num_facts(), false);
      for (FactId f = 0; f < db.num_facts(); ++f) {
        removed[f] = m > 0 && rng->NextBelow(4) < static_cast<uint64_t>(m);
      }
      const std::string context = sweep.name + ", mask " +
                                  std::to_string(m) + ", database\n" +
                                  db_text;
      const Dfa& dfa = sweep.lang.min_dfa();
      EXPECT_EQ(EvaluatesToTrue(db, index, dfa, &removed),
                EnfaProductSearch(db, index, sweep.source, &removed, -1, -1,
                                  /*reconstruct=*/false)
                    .has_value())
          << context;
      const std::optional<WitnessWalk> walk =
          ShortestWitnessWalk(db, index, dfa, &removed);
      const std::optional<WitnessWalk> reference = EnfaProductSearch(
          db, index, sweep.source, &removed, -1, -1, /*reconstruct=*/true);
      ASSERT_EQ(walk.has_value(), reference.has_value()) << context;
      if (walk) {
        EXPECT_EQ(walk->size(), reference->size()) << context;
        ExpectValidWalk(db, removed, sweep.lang, *walk, context);
      }
      for (int pair = 0; pair < 3; ++pair) {
        const NodeId s = static_cast<NodeId>(rng->NextBelow(db.num_nodes()));
        const NodeId t = static_cast<NodeId>(rng->NextBelow(db.num_nodes()));
        EXPECT_EQ(EvaluatesToTrueBetween(db, index, dfa, s, t, &removed),
                  EnfaProductSearch(db, index, sweep.source, &removed, s, t,
                                    /*reconstruct=*/false)
                      .has_value())
            << context << ", endpoints " << s << " -> " << t;
      }
      // IF(L), the language the exact solver searches: the same walks,
      // fact for fact, as on the trimmed εNFA of its minimal DFA.
      EXPECT_EQ(ShortestWitnessWalk(db, index, sweep.ifl.min_dfa(), &removed),
                EnfaProductSearch(db, index, sweep.ifl_trimmed, &removed, -1,
                                  -1, /*reconstruct=*/true))
          << context << ", IF(L)";
    }
  }
}

TEST(RpqEvalTest, DfaSearchMatchesEnfaSearchOnSmallWordSets) {
  Rng rng(20261019);
  for (const std::vector<std::string>& words : SmallWordSets()) {
    const Language lang = Language::FromWords(words);
    CheckAgainstEnfaSearch(
        MakeSweepLanguage(lang.description(), lang, EnfaFromWords(words)),
        &rng);
    if (HasFailure()) return;
  }
}

TEST(RpqEvalTest, DfaSearchMatchesEnfaSearchOnGeneratedRegexes) {
  Rng rng(20261020);
  const std::vector<std::string> regexes = GeneratedRegexes(27, 400);
  ASSERT_GE(regexes.size(), 350u);
  for (const std::string& regex : regexes) {
    CheckAgainstEnfaSearch(
        MakeSweepLanguage(regex, Language::MustFromRegexString(regex),
                          ThompsonEnfa(MustParseRegex(regex))),
        &rng);
    if (HasFailure()) return;
  }
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
