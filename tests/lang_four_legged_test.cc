// Tests for four-legged languages (Section 5.1): witness search, the
// stable-legs upgrade of Lemma 5.5, the paper's Example 5.2, and the DFA
// walk against a word-by-word check of Def 5.1.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "language_sweep.h"

namespace rpqres {
namespace {

void ExpectValidWitness(const Language& lang,
                        const FourLeggedWitness& w) {
  EXPECT_NE(w.body, '\0');
  EXPECT_FALSE(w.alpha.empty());
  EXPECT_FALSE(w.beta.empty());
  EXPECT_FALSE(w.gamma.empty());
  EXPECT_FALSE(w.delta.empty());
  EXPECT_TRUE(lang.Contains(w.FirstWord()));
  EXPECT_TRUE(lang.Contains(w.SecondWord()));
  EXPECT_FALSE(lang.Contains(w.CrossWord()));
}

TEST(FourLeggedTest, Example52Positive) {
  // Example 5.2: axb|cxd and axb|cxd|cxb are four-legged.
  for (const char* regex : {"axb|cxd", "axb|cxd|cxb"}) {
    Language lang = Language::MustFromRegexString(regex);
    std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
    ASSERT_TRUE(w.has_value()) << regex;
    ExpectValidWitness(lang, *w);
  }
}

TEST(FourLeggedTest, Example52Negative) {
  // Example 5.2: aa and ab|bc are non-local but NOT four-legged.
  for (const char* regex : {"aa", "ab|bc"}) {
    EXPECT_FALSE(
        FindFourLeggedWitness(Language::MustFromRegexString(regex)))
        << regex;
  }
}

TEST(FourLeggedTest, LocalLanguagesNeverFourLegged) {
  for (const char* regex : {"ax*b", "ab|ad|cd", "abc|abd"}) {
    EXPECT_FALSE(
        FindFourLeggedWitness(Language::MustFromRegexString(regex)))
        << regex;
  }
}

TEST(FourLeggedTest, InfiniteFourLegged) {
  // ax*b|cxd: witness a·x·b / c·x·d with cross a·x·d ∉ L.
  Language lang = Language::MustFromRegexString("ax*b|cxd");
  std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
  ASSERT_TRUE(w.has_value());
  ExpectValidWitness(lang, *w);
}

TEST(FourLeggedTest, PreferredWitnessIsStable) {
  // The search returns a stable witness when one exists at the scanned
  // lengths (Lemma 5.5 guarantees existence).
  Language lang = Language::MustFromRegexString("axb|cxd");
  std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->stable);
  EXPECT_FALSE(SomeInfixInLanguage(lang, w->CrossWord()));
}

TEST(FourLeggedTest, MakeStableLegsOnAlreadyStable) {
  Language lang = Language::MustFromRegexString("axb|cxd");
  std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
  ASSERT_TRUE(w && w->stable);
  FourLeggedWitness stable = MakeStableLegs(lang, *w);
  EXPECT_TRUE(stable.stable);
  ExpectValidWitness(lang, stable);
}

TEST(FourLeggedTest, MakeStableLegsUpgradesUnstable) {
  // L = abxcd|efxgh|fxc: legs ab/cd/ef/gh with body x are four-legged but
  // unstable (fxc ∈ L is an infix of the cross word abxgh? no — build a
  // genuinely unstable witness instead: cross ef·x·cd has infix fxc ∈ L).
  Language lang = Language::MustFromRegexString("abxcd|efxgh|fxc");
  ASSERT_TRUE(lang.Contains("abxcd"));
  ASSERT_TRUE(lang.Contains("efxgh"));
  FourLeggedWitness unstable;
  unstable.body = 'x';
  unstable.alpha = "ef";
  unstable.beta = "gh";
  unstable.gamma = "ab";
  unstable.delta = "cd";
  // Cross = efxcd ∉ L, but its strict infix fxc ∈ L, so it is not stable.
  ASSERT_FALSE(lang.Contains(unstable.CrossWord()));
  ASSERT_TRUE(SomeInfixInLanguage(lang, unstable.CrossWord()));
  FourLeggedWitness stable = MakeStableLegs(lang, unstable);
  EXPECT_TRUE(stable.stable);
  ExpectValidWitness(lang, stable);
  EXPECT_FALSE(SomeInfixInLanguage(lang, stable.CrossWord()));
}

TEST(FourLeggedTest, SomeInfixInLanguage) {
  Language lang = Language::MustFromRegexString("ab|cd");
  EXPECT_TRUE(SomeInfixInLanguage(lang, "xxabyy"));
  EXPECT_TRUE(SomeInfixInLanguage(lang, "cd"));
  EXPECT_FALSE(SomeInfixInLanguage(lang, "ba"));
  EXPECT_FALSE(SomeInfixInLanguage(lang, ""));
}

class FourLeggedConsistencyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FourLeggedConsistencyTest, WitnessIsValidWhenFound) {
  Language lang = Language::MustFromRegexString(GetParam());
  std::optional<FourLeggedWitness> w = FindFourLeggedWitness(lang);
  if (w) {
    ExpectValidWitness(lang, *w);
    FourLeggedWitness stable = MakeStableLegs(lang, *w);
    EXPECT_TRUE(stable.stable);
    ExpectValidWitness(lang, stable);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FourLeggedConsistencyTest,
                         ::testing::Values("axb|cxd", "axb|cxd|cxb",
                                           "ax*b|cxd", "b(aa)*d",
                                           "abxcd|efxgh", "be*c|de*f",
                                           "axxb|cxxd", "abc|bcd",
                                           "abcd|be|ef"));

// The reference for the DFA walk: Def 5.1 checked word by word. Every
// word of a finite L, or every word of at most `max_word_length` letters,
// is tried pairwise at each interior position. Returns whether some pair
// is a witness.
bool EnumeratedFourLegged(const Language& lang, int max_word_length) {
  Result<std::vector<std::string>> words =
      lang.IsFinite() ? lang.Words() : lang.WordsUpTo(max_word_length);
  EXPECT_TRUE(words.ok()) << lang.description() << ": " << words.status();
  if (!words.ok()) return false;
  const Dfa& dfa = lang.min_dfa();
  for (const std::string& w1 : *words) {
    for (size_t i = 1; i + 1 < w1.size(); ++i) {
      // αxδ ∈ L iff δ leads from the state after αx = w1[0..i] into F.
      const int after_x = dfa.Run(w1.substr(0, i + 1));
      for (const std::string& w2 : *words) {
        for (size_t j = 1; j + 1 < w2.size(); ++j) {
          if (w2[j] != w1[i]) continue;
          const int end = dfa.RunFrom(after_x, w2.substr(j + 1));
          if (end == kNoState || !dfa.IsFinal(end)) return true;
        }
      }
    }
  }
  return false;
}

// The walk agrees with the enumeration on the infix-free `ifl` at bounds
// 8 down to 3, and every witness it returns is valid, stable and left
// stable by MakeStableLegs.
void ExpectWalkMatchesEnumeration(const Language& ifl,
                                  const std::string& name) {
  bool enumerated = true;
  for (int bound = 8; bound >= 3; --bound) {
    // The words the enumeration tries at `bound` are among those it tried
    // at `bound + 1`: once it finds no witness, it finds none below.
    if (enumerated) enumerated = EnumeratedFourLegged(ifl, bound);
    std::optional<FourLeggedWitness> walked =
        FindFourLeggedWitness(ifl, bound);
    EXPECT_EQ(walked.has_value(), enumerated)
        << name << " at bound " << bound;
    if (!walked) continue;
    ExpectValidWitness(ifl, *walked);
    EXPECT_TRUE(walked->stable) << name;
    EXPECT_FALSE(SomeInfixInLanguage(ifl, walked->CrossWord())) << name;
    EXPECT_TRUE(MakeStableLegs(ifl, *walked).stable) << name;
  }
}

TEST(FourLeggedDifferentialTest, SmallLanguages) {
  int found = 0;
  for (const std::vector<std::string>& words : SmallWordSets()) {
    const Language ifl = InfixFreeSublanguage(Language::FromWords(words));
    ExpectWalkMatchesEnumeration(ifl, ifl.description());
    found += FindFourLeggedWitness(ifl).has_value() ? 1 : 0;
  }
  EXPECT_GT(found, 0);
}

TEST(FourLeggedDifferentialTest, GeneratedQueries) {
  // The regex stream the engine and the benchmark compile, every class.
  const std::vector<std::string> regexes = GeneratedRegexes(24, 2000);
  ASSERT_GE(regexes.size(), 2000u);
  int found = 0;
  for (const std::string& regex : regexes) {
    const Language ifl =
        InfixFreeSublanguage(Language::MustFromRegexString(regex));
    ExpectWalkMatchesEnumeration(ifl, regex);
    found += FindFourLeggedWitness(ifl).has_value() ? 1 : 0;
  }
  EXPECT_GT(found, 0);
}

TEST(FourLeggedDifferentialTest, BoundIsDecidedExactly) {
  // The shortest witnesses: a·x·b / c·x·d for ax*b|cxd (3 letters each),
  // and b·a·ad / ba·a·d for b(aa)*d (4 letters each; bad ∉ L).
  Language axb = Language::MustFromRegexString("ax*b|cxd");
  EXPECT_FALSE(FindFourLeggedWitness(axb, 2).has_value());
  EXPECT_TRUE(FindFourLeggedWitness(axb, 3).has_value());
  Language even = Language::MustFromRegexString("b(aa)*d");
  EXPECT_FALSE(FindFourLeggedWitness(even, 3).has_value());
  EXPECT_TRUE(FindFourLeggedWitness(even, 4).has_value());
}

}  // namespace
}  // namespace rpqres
