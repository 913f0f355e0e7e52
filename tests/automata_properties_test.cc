// Algebraic property tests over the automata toolbox: the difference
// product against word-level semantics on bounded samples, minimization
// idempotence/canonicity, mirror, and Thompson against its derived DFAs.

#include <gtest/gtest.h>

#include <functional>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "regex/parser.h"
#include "util/rng.h"

namespace rpqres {
namespace {

Dfa DfaOf(const std::string& regex) {
  return MinimalDfa(ThompsonEnfa(MustParseRegex(regex)));
}

// All words over `sigma` of length <= max_len.
std::vector<std::string> Words(const std::vector<char>& sigma,
                               int max_len) {
  std::vector<std::string> out{""};
  size_t begin = 0;
  for (int len = 1; len <= max_len; ++len) {
    size_t end = out.size();
    for (size_t i = begin; i < end; ++i) {
      for (char c : sigma) out.push_back(out[i] + c);
    }
    begin = end;
  }
  return out;
}

class BooleanAlgebraTest
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(BooleanAlgebraTest, OperationsMatchWordSemantics) {
  const auto& [r1, r2] = GetParam();
  Dfa a = DfaOf(r1), b = DfaOf(r2);
  Dfa a_minus_b = DifferenceDfa(a, b);
  std::vector<char> sigma = MergeAlphabets(a.alphabet(), b.alphabet());
  for (const std::string& w : Words(sigma, 4)) {
    EXPECT_EQ(a_minus_b.Accepts(w), a.Accepts(w) && !b.Accepts(w)) << w;
  }
}

TEST_P(BooleanAlgebraTest, MinimizeIsIdempotentAndCanonical) {
  const auto& [r1, r2] = GetParam();
  (void)r2;
  Dfa a = DfaOf(r1);
  Dfa again = Minimize(a);
  EXPECT_EQ(a.num_states(), again.num_states());
  EXPECT_TRUE(AreEquivalent(a, again));
  // Canonical numbering: minimizing twice yields identical tables.
  for (int s = 0; s < a.num_states(); ++s) {
    EXPECT_EQ(a.IsFinal(s), again.IsFinal(s));
    for (char c : a.alphabet()) {
      EXPECT_EQ(a.Next(s, c), again.Next(s, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, BooleanAlgebraTest,
    ::testing::Values(std::make_tuple("ax*b", "axb|cxd"),
                      std::make_tuple("(a|b)*", "a*b*"),
                      std::make_tuple("ab|bc", "b(aa)*d"),
                      std::make_tuple("aa", "a*"),
                      std::make_tuple("abc|bcd", "abcd|be|ef")));

TEST(MirrorPropertyTest, MirrorOfMirrorAndLengthPreservation) {
  for (const char* regex : {"ax*b", "abc|de", "b(aa)*d"}) {
    Enfa e = ThompsonEnfa(MustParseRegex(regex));
    Enfa mirrored = EnfaMirror(e);
    Dfa d = MinimalDfa(e);
    Dfa md = MinimalDfa(mirrored);
    for (const std::string& w : Words(d.alphabet(), 4)) {
      std::string reversed(w.rbegin(), w.rend());
      EXPECT_EQ(d.Accepts(w), md.Accepts(reversed)) << regex << " " << w;
    }
    EXPECT_TRUE(AreEquivalent(MinimalDfa(EnfaMirror(mirrored)), d));
  }
}

TEST(RandomizedEquivalenceTest, ThompsonVsDerivedAutomata) {
  // Random small regexes: the Thompson εNFA, its determinization, and its
  // minimization agree on all short words.
  Rng rng(2025);
  const std::vector<char> sigma = {'a', 'b', 'c'};
  for (int trial = 0; trial < 40; ++trial) {
    // Build a random regex tree of bounded depth.
    std::string regex;
    std::function<void(int)> gen = [&](int depth) {
      if (depth == 0 || rng.NextChance(1, 3)) {
        regex.push_back(sigma[rng.NextBelow(sigma.size())]);
        return;
      }
      switch (rng.NextBelow(3)) {
        case 0:  // concat
          gen(depth - 1);
          gen(depth - 1);
          break;
        case 1:  // union
          regex.push_back('(');
          gen(depth - 1);
          regex.push_back('|');
          gen(depth - 1);
          regex.push_back(')');
          break;
        default:  // star
          regex.push_back('(');
          gen(depth - 1);
          regex.push_back(')');
          regex.push_back('*');
      }
    };
    gen(3);
    Result<Regex> parsed = ParseRegex(regex);
    ASSERT_TRUE(parsed.ok()) << regex;
    Enfa e = ThompsonEnfa(*parsed);
    Dfa d = Determinize(e);
    Dfa m = Minimize(d);
    for (const std::string& w : Words(sigma, 3)) {
      bool expected = e.Accepts(w);
      EXPECT_EQ(d.Accepts(w), expected) << regex << " on " << w;
      EXPECT_EQ(m.Accepts(w), expected) << regex << " on " << w;
    }
  }
}

}  // namespace
}  // namespace rpqres
