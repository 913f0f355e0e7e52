// Tests for repeated-letter analysis (Section 6): automaton-level
// detection, maximal-gap words (Def 6.4), and Lem 6.2 (finite languages
// with repeated letters are not local).

#include <gtest/gtest.h>

#include "lang/language.h"
#include "lang/local.h"
#include "lang/repeated_letter.h"
#include "language_sweep.h"

namespace rpqres {
namespace {

TEST(RepeatedLetterTest, Detection) {
  EXPECT_TRUE(
      HasRepeatedLetterWord(Language::MustFromRegexString("aa")));
  EXPECT_TRUE(
      HasRepeatedLetterWord(Language::MustFromRegexString("abca|cab")));
  EXPECT_TRUE(
      HasRepeatedLetterWord(Language::MustFromRegexString("ax*b")));
  EXPECT_FALSE(
      HasRepeatedLetterWord(Language::MustFromRegexString("ab|bc|ca")));
  EXPECT_FALSE(
      HasRepeatedLetterWord(Language::MustFromRegexString("abc")));
  EXPECT_FALSE(HasRepeatedLetterWord(Language::FromWords({})));
}

TEST(RepeatedLetterTest, ShortestRepeatedWord) {
  EXPECT_EQ(*ShortestRepeatedLetterWord(
                Language::MustFromRegexString("abc|aa|abab")),
            "aa");
  EXPECT_EQ(*ShortestRepeatedLetterWord(
                Language::MustFromRegexString("ax*b")),
            "axxb");
  EXPECT_EQ(ShortestRepeatedLetterWord(
                Language::MustFromRegexString("abc")),
            std::nullopt);
}

TEST(RepeatedLetterTest, BestRepeatInWord) {
  std::optional<RepeatedLetterWord> r = BestRepeatInWord("abcbd");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->letter, 'b');
  EXPECT_EQ(r->gamma(), "c");
  EXPECT_EQ(r->beta(), "a");
  EXPECT_EQ(r->delta(), "d");
  EXPECT_FALSE(BestRepeatInWord("abc").has_value());
  // Picks the widest gap.
  std::optional<RepeatedLetterWord> wide = BestRepeatInWord("abcade");
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->letter, 'a');
  EXPECT_EQ(wide->gamma(), "bc");
}

TEST(RepeatedLetterTest, MaximalGapWordDefinition64) {
  // Gap is maximized first, then word length.
  std::optional<RepeatedLetterWord> m =
      FindMaximalGapWord({"aa", "abca", "axya"});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->gap(), 2u);
  // Both abca and axya tie on gap 2; either is acceptable, both length 4.
  EXPECT_EQ(m->word.size(), 4u);

  std::optional<RepeatedLetterWord> longer =
      FindMaximalGapWord({"aba", "abaz"});
  ASSERT_TRUE(longer.has_value());
  EXPECT_EQ(longer->word, "abaz");  // same gap 1, longer word wins
}

TEST(RepeatedLetterTest, MaximalGapFromLanguage) {
  Language lang = Language::MustFromRegexString("abca|cab|aa");
  Result<std::optional<RepeatedLetterWord>> m = FindMaximalGapWord(lang);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_TRUE(m->has_value());
  EXPECT_EQ((*m)->word, "abca");
  EXPECT_EQ((*m)->letter, 'a');
  EXPECT_EQ(*FindMaximalGapWord(Language::MustFromRegexString("abc|cab")),
            std::nullopt);
}

TEST(RepeatedLetterTest, MaximalGapWordListFailsAsAStatus) {
  // (a|b|c|d)×11 has 4^11 words, past the 2^20 the word list holds: the
  // maximal-gap word is an OutOfRange status, while the DFA walks still
  // find a repeat. An infinite language has no word list.
  Language quad =
      Language::MustFromRegexString(RepeatedGroup("(a|b|c|d)", 11));
  EXPECT_TRUE(HasRepeatedLetterWord(quad));
  EXPECT_EQ(ShortestRepeatedLetterWord(quad), "aaaaaaaaaaa");
  EXPECT_EQ(FindMaximalGapWord(quad).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(FindMaximalGapWord(Language::MustFromRegexString("ax*b"))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(RepeatedLetterTest, Lemma62FiniteRepeatedNotLocal) {
  for (const char* regex : {"aa", "aaaa", "abca|cab", "aba|bab", "aab"}) {
    Language lang = Language::MustFromRegexString(regex);
    ASSERT_TRUE(lang.IsFinite());
    ASSERT_TRUE(HasRepeatedLetterWord(lang)) << regex;
    EXPECT_FALSE(IsLocal(lang)) << regex;  // Lem 6.2
  }
  // Finiteness is essential: ax*b repeats x and is local (paper remark).
  Language axb = Language::MustFromRegexString("ax*b");
  EXPECT_TRUE(HasRepeatedLetterWord(axb));
  EXPECT_TRUE(IsLocal(axb));
}

}  // namespace
}  // namespace rpqres
