// Tests for the automata toolbox: Thompson, determinization, minimization,
// difference, decision procedures, enumeration.

#include <gtest/gtest.h>

#include "automata/dfa.h"
#include "automata/enfa.h"
#include "automata/ops.h"
#include "automata/thompson.h"
#include "regex/parser.h"
#include "util/strings.h"

namespace rpqres {
namespace {

Enfa EnfaOf(const std::string& regex) {
  return ThompsonEnfa(MustParseRegex(regex));
}

Dfa DfaOf(const std::string& regex) { return MinimalDfa(EnfaOf(regex)); }

TEST(EnfaTest, AcceptsBySimulation) {
  Enfa a = EnfaOf("ax*b");
  EXPECT_TRUE(a.Accepts("ab"));
  EXPECT_TRUE(a.Accepts("axb"));
  EXPECT_TRUE(a.Accepts("axxxxb"));
  EXPECT_FALSE(a.Accepts(""));
  EXPECT_FALSE(a.Accepts("a"));
  EXPECT_FALSE(a.Accepts("axx"));
  EXPECT_FALSE(a.Accepts("bxa"));
}

TEST(EnfaTest, SizeCountsStatesAndTransitions) {
  Enfa a;
  a.AddStates(3);
  a.AddTransition(0, 'a', 1);
  a.AddTransition(1, kEpsilonSymbol, 2);
  EXPECT_EQ(a.Size(), 5);
  EXPECT_FALSE(a.IsEpsilonFree());
  EXPECT_EQ(a.Alphabet(), (std::vector<char>{'a'}));
}

TEST(EnfaTest, EpsilonClosure) {
  Enfa a;
  a.AddStates(4);
  a.AddTransition(0, kEpsilonSymbol, 1);
  a.AddTransition(1, kEpsilonSymbol, 2);
  a.AddTransition(2, 'x', 3);
  EXPECT_EQ(a.EpsilonClosure({0}), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(a.EpsilonClosure({3}), (std::vector<int>{3}));
}

TEST(EnfaTest, WordConstructions) {
  EXPECT_TRUE(EnfaFromWord("abc").Accepts("abc"));
  EXPECT_FALSE(EnfaFromWord("abc").Accepts("ab"));
  EXPECT_TRUE(EnfaFromWord("").Accepts(""));
  Enfa words = EnfaFromWords({"ab", "cd", ""});
  EXPECT_TRUE(words.Accepts("ab"));
  EXPECT_TRUE(words.Accepts("cd"));
  EXPECT_TRUE(words.Accepts(""));
  EXPECT_FALSE(words.Accepts("ad"));
}

TEST(EnfaTest, MirrorReversesWords) {
  Enfa m = EnfaMirror(EnfaOf("ab|cd"));
  EXPECT_TRUE(m.Accepts("ba"));
  EXPECT_TRUE(m.Accepts("dc"));
  EXPECT_FALSE(m.Accepts("ab"));
}

TEST(EnfaTest, TrimRemovesUselessStates) {
  Enfa a;
  a.AddStates(4);
  a.AddInitial(0);
  a.AddFinal(2);
  a.AddTransition(0, 'a', 2);
  a.AddTransition(0, 'b', 1);  // 1 is a dead end
  a.AddTransition(3, 'c', 2);  // 3 unreachable
  Enfa trimmed = EnfaTrim(a);
  EXPECT_EQ(trimmed.num_states(), 2);
  EXPECT_TRUE(trimmed.Accepts("a"));
  EXPECT_FALSE(trimmed.Accepts("b"));
}

TEST(DeterminizeTest, MatchesEnfaSemantics) {
  for (const char* regex : {"ax*b", "ab|ad|cd", "b(aa)*d", "a(b|c)*d"}) {
    Enfa e = EnfaOf(regex);
    Dfa d = Determinize(e);
    EXPECT_TRUE(d.IsComplete());
    for (const std::string& w :
         {std::string(""), std::string("ab"), std::string("ad"),
          std::string("axb"), std::string("bd"), std::string("baad"),
          std::string("abcbd"), std::string("cd"), std::string("abd")}) {
      EXPECT_EQ(d.Accepts(w), e.Accepts(w)) << regex << " on " << w;
    }
  }
}

TEST(MinimizeTest, MinimalSizes) {
  // ax*b needs 3 productive states + sink = 4 complete states.
  Dfa d = DfaOf("ax*b");
  EXPECT_EQ(d.num_states(), 4);
  // The empty language over {} minimizes to a single state.
  Dfa empty = Minimize(Determinize(EnfaFromWords({})));
  EXPECT_EQ(empty.num_states(), 1);
  EXPECT_TRUE(DfaIsEmptyLanguage(empty));
}

TEST(MinimizeTest, EquivalentRegexesGiveSameAutomaton) {
  Dfa a = DfaOf("a(ba)*");
  Dfa b = DfaOf("(ab)*a");
  EXPECT_TRUE(AreEquivalent(a, b));
  EXPECT_EQ(a.num_states(), b.num_states());
}

TEST(CompleteDfaTest, AddsSinkAndAlphabet) {
  Dfa d(std::vector<char>{'a'}, 1);
  d.set_initial(0);
  d.SetFinal(0);
  // No transitions: completing over {a, b} adds a sink.
  Dfa complete = CompleteDfa(d, {'a', 'b'});
  EXPECT_TRUE(complete.IsComplete());
  EXPECT_EQ(complete.alphabet(), (std::vector<char>{'a', 'b'}));
  EXPECT_TRUE(complete.Accepts(""));
  EXPECT_FALSE(complete.Accepts("a"));
}

TEST(BooleanOpsTest, Difference) {
  Dfa with_a = DfaOf("(a|b)*a(a|b)*");
  Dfa with_b = DfaOf("(a|b)*b(a|b)*");
  Dfa only_a = DifferenceDfa(with_a, with_b);
  EXPECT_TRUE(only_a.Accepts("aaa"));
  EXPECT_FALSE(only_a.Accepts("ab"));
}

TEST(DecisionTest, EmptinessAndInclusion) {
  EXPECT_FALSE(DfaIsEmptyLanguage(DfaOf("a")));
  EXPECT_TRUE(
      DfaIsEmptyLanguage(DifferenceDfa(DfaOf("ab|cd"), DfaOf("ab|cd|ef"))));
  EXPECT_TRUE(IsSubsetOf(DfaOf("ab"), DfaOf("ab|cd")));
  EXPECT_FALSE(IsSubsetOf(DfaOf("ab|cd"), DfaOf("ab")));
}

TEST(DecisionTest, Finiteness) {
  EXPECT_TRUE(DfaIsFinite(DfaOf("ab|ad|cd")));
  EXPECT_TRUE(DfaIsFinite(DfaOf("aaaa")));
  EXPECT_FALSE(DfaIsFinite(DfaOf("ax*b")));
  EXPECT_FALSE(DfaIsFinite(DfaOf("b(aa)*d")));
  // Infinite-looking regex whose loop is unproductive stays finite.
  EXPECT_TRUE(DfaIsFinite(Minimize(
      DifferenceDfa(DfaOf("ax*b"), DfaOf("ax*b")))));
}

TEST(ShortestWordTest, LengthThenLex) {
  EXPECT_EQ(ShortestWord(DfaOf("ax*b")).value(), "ab");
  EXPECT_EQ(ShortestWord(DfaOf("ba|ab")).value(), "ab");
  EXPECT_EQ(ShortestWord(DfaOf("aaa|x")).value(), "x");
  EXPECT_EQ(ShortestWord(Minimize(DifferenceDfa(DfaOf("a"), DfaOf("a")))),
            std::nullopt);
}

TEST(EnumerationTest, FiniteLanguages) {
  Result<std::vector<std::string>> words =
      EnumerateFiniteLanguage(DfaOf("ab|ad|cd|a"));
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(*words,
            (std::vector<std::string>{"a", "ab", "ad", "cd"}));
  EXPECT_FALSE(EnumerateFiniteLanguage(DfaOf("ax*b")).ok());
}

TEST(EnumerationTest, WordsUpToLength) {
  Result<std::vector<std::string>> words = WordsUpToLength(DfaOf("ax*b"), 4);
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(*words,
            (std::vector<std::string>{"ab", "axb", "axxb"}));
}

TEST(EnumerationTest, CountWordsByLength) {
  std::vector<uint64_t> counts = CountWordsByLength(DfaOf("(a|b)*"), 3);
  EXPECT_EQ(counts, (std::vector<uint64_t>{1, 2, 4, 8}));
  counts = CountWordsByLength(DfaOf("ax*b"), 4);
  EXPECT_EQ(counts, (std::vector<uint64_t>{0, 0, 1, 1, 1}));
}

TEST(DfaToEnfaTest, RoundTrip) {
  Dfa d = DfaOf("ab|ad|cd");
  Enfa e = DfaToEnfa(d);
  EXPECT_TRUE(e.Accepts("ab"));
  EXPECT_FALSE(e.Accepts("cb"));
  EXPECT_TRUE(AreEquivalent(MinimalDfa(e), d));
}

TEST(MergeAlphabetsTest, SortedUnion) {
  EXPECT_EQ(MergeAlphabets({'a', 'c'}, {'b', 'c'}),
            (std::vector<char>{'a', 'b', 'c'}));
  EXPECT_EQ(MergeAlphabets({}, {'z'}), (std::vector<char>{'z'}));
}

TEST(DotExportTest, ProducesDigraph) {
  std::string dot = DfaOf("ab").ToDot("d");
  EXPECT_NE(dot.find("digraph d"), std::string::npos);
  std::string dot2 = EnfaOf("a|b").ToDot("e");
  EXPECT_NE(dot2.find("digraph e"), std::string::npos);
}

}  // namespace
}  // namespace rpqres
