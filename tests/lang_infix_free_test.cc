// Tests for IF(L): definition, idempotence, preservation properties
// (Lem 3.14 locality, App B star-freeness, Lem 7.5 BCL-ness), the
// Q_L = Q_IF(L) identity at the automaton level, and a seeded sweep of
// the subset walk against the word-level definition.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "automata/ops.h"
#include "lang/chain.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/star_free.h"
#include "util/rng.h"
#include "workload/query_generator.h"

namespace rpqres {
namespace {

TEST(InfixFreeTest, PaperExampleAbbcBb) {
  // Section 2: IF(abbc|bb) = bb (abbc has strict infix bb).
  Language lang = Language::MustFromRegexString("abbc|bb");
  Language ifl = InfixFreeSublanguage(lang);
  EXPECT_TRUE(ifl.Contains("bb"));
  EXPECT_FALSE(ifl.Contains("abbc"));
  EXPECT_EQ(*ifl.Words(), (std::vector<std::string>{"bb"}));
}

TEST(InfixFreeTest, PaperExampleAAa) {
  // Section 3.2: IF({a, aa}) = {a}.
  Language lang = Language::FromWords({"a", "aa"});
  Language ifl = InfixFreeSublanguage(lang);
  EXPECT_EQ(*ifl.Words(), (std::vector<std::string>{"a"}));
}

TEST(InfixFreeTest, EpsilonDominatesEverything) {
  Language lang = Language::MustFromRegexString("a*");
  Language ifl = InfixFreeSublanguage(lang);
  EXPECT_TRUE(ifl.ContainsEpsilon());
  EXPECT_EQ(*ifl.Words(), (std::vector<std::string>{""}));
}

TEST(InfixFreeTest, InfiniteLanguage) {
  // IF(ax*b) = ax*b (no word is an infix of another: both endpoints are
  // rigid).
  Language lang = Language::MustFromRegexString("ax*b");
  EXPECT_TRUE(IsInfixFree(lang));
  // IF(x*) = {ε}.
  Language xs = Language::MustFromRegexString("x*");
  EXPECT_TRUE(
      InfixFreeSublanguage(xs).EquivalentTo(Language::FromWords({""})));
}

TEST(InfixFreeTest, MixedCase) {
  // ax*b|xd: xd is not an infix of any ax^k b, so IF keeps everything.
  Language lang = Language::MustFromRegexString("ax*b|xd");
  EXPECT_TRUE(IsInfixFree(lang));
  // ax*b|xb: xb IS an infix of axb (and every ax^k b with k >= 1);
  // IF = ab|xb.
  Language lang2 = Language::MustFromRegexString("ax*b|xb");
  Language ifl2 = InfixFreeSublanguage(lang2);
  EXPECT_TRUE(ifl2.EquivalentTo(Language::FromWords({"ab", "xb"})));
}

TEST(InfixFreeTest, WordListAgreesWithAutomaton) {
  for (const char* regex :
       {"aa|aaa", "ab|abc|bc", "abc|bcd", "aab|ab", "a|b|ab"}) {
    Language lang = Language::MustFromRegexString(regex);
    Language ifl = InfixFreeSublanguage(lang);
    std::vector<std::string> expected = InfixFreeWords(*lang.Words());
    std::sort(expected.begin(), expected.end());
    std::vector<std::string> actual = *ifl.Words();
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << regex;
  }
}

// IF(L) against the word-level definition, on all words up to the largest
// length k at which L has at most kSweepWords words: a strict infix of a
// word of length <= k is shorter, so InfixFreeWords over L's words up to
// k yields exactly IF(L)'s words up to k.
constexpr size_t kSweepWords = 2000;
constexpr int kSweepMaxLength = 16;

void ExpectMatchesWordLevelDefinition(const Language& lang,
                                      const std::string& name) {
  int k = 0;
  Result<std::vector<std::string>> words = lang.WordsUpTo(k, kSweepWords);
  ASSERT_TRUE(words.ok()) << name;
  while (k < kSweepMaxLength) {
    Result<std::vector<std::string>> longer =
        lang.WordsUpTo(k + 1, kSweepWords);
    if (!longer.ok()) break;
    words = std::move(longer);
    ++k;
  }
  Result<std::vector<std::string>> actual =
      InfixFreeSublanguage(lang).WordsUpTo(k, kSweepWords);
  ASSERT_TRUE(actual.ok()) << name << ": " << actual.status();
  EXPECT_EQ(*actual, InfixFreeWords(*words))
      << name << " up to length " << k;
}

TEST(InfixFreeSweepTest, GeneratedQueriesMatchWordLevelDefinition) {
  // The regex distribution the cold_regex benchmark compiles: every
  // query class, from fixed seeds.
  int checked = 0;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    for (int i = 0; i < 100; ++i) {
      const workload::QueryClass target =
          workload::kAllQueryClasses[i % workload::kAllQueryClasses.size()];
      Result<workload::GeneratedQuery> query =
          workload::GenerateQuery(&rng, target, /*max_attempts=*/64,
                                  /*max_word_length=*/8);
      if (!query.ok()) continue;
      ExpectMatchesWordLevelDefinition(
          Language::MustFromRegexString(query->regex), query->regex);
      ++checked;
    }
  }
  EXPECT_GE(checked, 250);
}

TEST(InfixFreeSweepTest, NamedLanguagesMatchWordLevelDefinition) {
  ExpectMatchesWordLevelDefinition(Language::FromWords({}), "∅");
  ExpectMatchesWordLevelDefinition(Language::FromWords({""}), "{ε}");
  for (const char* regex : {"a*", "(aa)*", "b(aa)*d", "abbc|bb"}) {
    ExpectMatchesWordLevelDefinition(Language::MustFromRegexString(regex),
                                     regex);
  }
}

TEST(InfixFreeSweepTest, LastLetterFamily) {
  // L = (a|b)*a(a|b){n}: 2^(n+1) DFA states, but IF(L) = a(a|b){n}, whose
  // minimal DFA has n + 3 states (n + 2 on the word, plus the sink).
  for (int n = 2; n <= 10; ++n) {
    std::string regex = "(a|b)*a";
    for (int i = 0; i < n; ++i) regex += "(a|b)";
    Language lang = Language::MustFromRegexString(regex);
    ExpectMatchesWordLevelDefinition(lang, regex);
    EXPECT_EQ(InfixFreeSublanguage(lang).min_dfa().num_states(), n + 3)
        << regex;
  }
}

class InfixFreePropertyTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(InfixFreePropertyTest, Idempotent) {
  Language lang = Language::MustFromRegexString(GetParam());
  Language once = InfixFreeSublanguage(lang);
  Language twice = InfixFreeSublanguage(once);
  EXPECT_TRUE(once.EquivalentTo(twice)) << GetParam();
}

TEST_P(InfixFreePropertyTest, SubsetOfOriginal) {
  Language lang = Language::MustFromRegexString(GetParam());
  Language ifl = InfixFreeSublanguage(lang);
  EXPECT_TRUE(IsSubsetOf(ifl.min_dfa(), lang.min_dfa())) << GetParam();
}

TEST_P(InfixFreePropertyTest, ResultIsInfixFree) {
  Language lang = Language::MustFromRegexString(GetParam());
  EXPECT_TRUE(IsInfixFree(InfixFreeSublanguage(lang))) << GetParam();
}

TEST_P(InfixFreePropertyTest, MirrorCommutes) {
  // IF(L^R) = IF(L)^R.
  Language lang = Language::MustFromRegexString(GetParam());
  Language a = InfixFreeSublanguage(lang.Mirror());
  Language b = InfixFreeSublanguage(lang).Mirror();
  EXPECT_TRUE(a.EquivalentTo(b)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, InfixFreePropertyTest,
                         ::testing::Values("aa", "ax*b", "abbc|bb",
                                           "ab|ad|cd", "a*", "b(aa)*d",
                                           "ax*b|xb", "abc|bcd|cde",
                                           "(a|b)*c", "aab|ab|b"));

TEST(InfixFreePreservationTest, LocalityLemma314) {
  // Lem 3.14: IF of a local language is local.
  for (const char* regex : {"ax*b", "ab|ad|cd", "abc|abd", "a(x|y)*b"}) {
    Language lang = Language::MustFromRegexString(regex);
    ASSERT_TRUE(IsLocal(lang)) << regex;
    EXPECT_TRUE(IsLocal(InfixFreeSublanguage(lang))) << regex;
  }
}

TEST(InfixFreePreservationTest, StarFreeAppendixB) {
  // Appendix B: IF of a star-free language is star-free.
  for (const char* regex : {"ax*b", "ab|cd", "a(b|c)*d"}) {
    Language lang = Language::MustFromRegexString(regex);
    ASSERT_TRUE(*IsStarFree(lang)) << regex;
    EXPECT_TRUE(*IsStarFree(InfixFreeSublanguage(lang))) << regex;
  }
  // The converse fails: (aa)* is not star-free but IF((aa)*) = {ε} is.
  Language aa_star = Language::MustFromRegexString("(aa)*");
  EXPECT_FALSE(*IsStarFree(aa_star));
  EXPECT_TRUE(*IsStarFree(InfixFreeSublanguage(aa_star)));
}

TEST(InfixFreePreservationTest, BclLemma75) {
  // Lem 7.5 (via Lem C.1/C.2): IF of a BCL is a BCL.
  for (const char* regex : {"ab|bc", "axb|byc", "axyb|bztc|cd|dea"}) {
    Language lang = Language::MustFromRegexString(regex);
    ASSERT_TRUE(IsBipartiteChainLanguage(lang)) << regex;
    EXPECT_TRUE(IsBipartiteChainLanguage(InfixFreeSublanguage(lang)))
        << regex;
  }
}

}  // namespace
}  // namespace rpqres
