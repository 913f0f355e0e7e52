// Tests for neutral letters (Section 5.2) and the paper's Lemma 5.8
// example languages L1 and L2.

#include <gtest/gtest.h>

#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/neutral_letter.h"

namespace rpqres {
namespace {

TEST(NeutralLetterTest, BasicPositive) {
  // e is neutral for e* and for e*ae*.
  EXPECT_TRUE(
      IsNeutralLetter(Language::MustFromRegexString("e*"), 'e'));
  EXPECT_TRUE(
      IsNeutralLetter(Language::MustFromRegexString("e*ae*"), 'e'));
  EXPECT_TRUE(IsNeutralLetter(
      Language::MustFromRegexString("e*ae*be*"), 'e'));
}

TEST(NeutralLetterTest, BasicNegative) {
  // a is not neutral for a (deleting it changes membership), e is not
  // neutral for ae (inserting at front: eae ∉ L).
  EXPECT_FALSE(IsNeutralLetter(Language::MustFromRegexString("a"), 'a'));
  EXPECT_FALSE(IsNeutralLetter(Language::MustFromRegexString("ae"), 'e'));
  EXPECT_FALSE(
      IsNeutralLetter(Language::MustFromRegexString("e*ae"), 'e'));
  EXPECT_FALSE(
      IsNeutralLetter(Language::MustFromRegexString("ax*b"), 'x'));
  // e loops at every state but the accepting one: ab ∈ L, abe ∉ L.
  EXPECT_FALSE(
      IsNeutralLetter(Language::MustFromRegexString("e*ae*b"), 'e'));
}

TEST(NeutralLetterTest, LetterOutsideTheAlphabet) {
  // No word of L contains z, so z is neutral iff L = ∅.
  EXPECT_FALSE(IsNeutralLetter(Language::MustFromRegexString("ab"), 'z'));
  EXPECT_FALSE(IsNeutralLetter(Language::FromWords({""}), 'z'));
  EXPECT_TRUE(IsNeutralLetter(Language::FromWords({}), 'z'));
}

TEST(NeutralLetterTest, NeutralLettersEnumeration) {
  Language lang = Language::MustFromRegexString("e*ae*be*|e*ce*");
  EXPECT_EQ(NeutralLetters(lang), (std::vector<char>{'e'}));
  EXPECT_TRUE(
      NeutralLetters(Language::MustFromRegexString("ab|cd")).empty());
}

TEST(NeutralLetterTest, PaperExampleL1) {
  // L1 = e*be*ce*|e*de*fe* with IF(L1) = be*c|de*f (four-legged, not
  // local, no xx word).
  Language l1 = Language::MustFromRegexString("e*be*ce*|e*de*fe*");
  ASSERT_TRUE(IsNeutralLetter(l1, 'e'));
  Language ifl = InfixFreeSublanguage(l1);
  EXPECT_TRUE(ifl.EquivalentTo(
      Language::MustFromRegexString("be*c|de*f")));
  EXPECT_FALSE(IsLocal(ifl));
  std::optional<FourLeggedWitness> witness = FindFourLeggedWitness(ifl, 8);
  ASSERT_TRUE(witness.has_value());
  // No word of the form xx.
  for (char x : ifl.used_letters()) {
    EXPECT_FALSE(ifl.Contains(std::string(2, x)));
  }
}

TEST(NeutralLetterTest, PaperExampleL2) {
  // L2 = e*(a|c)e*(a|d)e* with IF(L2) = (a|c)e*(a|d): not local, contains
  // aa, not four-legged.
  Language l2 = Language::MustFromRegexString("e*(a|c)e*(a|d)e*");
  ASSERT_TRUE(IsNeutralLetter(l2, 'e'));
  Language ifl = InfixFreeSublanguage(l2);
  EXPECT_TRUE(ifl.EquivalentTo(
      Language::MustFromRegexString("(a|c)e*(a|d)")));
  EXPECT_FALSE(IsLocal(ifl));
  EXPECT_TRUE(ifl.Contains("aa"));
  EXPECT_FALSE(FindFourLeggedWitness(ifl, 8).has_value());
}

TEST(NeutralLetterTest, Lemma58Dichotomy) {
  // For languages with a neutral letter and non-local IF, Lemma 5.8 says:
  // four-legged or xx ∈ IF(L). Check on both paper examples.
  for (const char* regex : {"e*be*ce*|e*de*fe*", "e*(a|c)e*(a|d)e*"}) {
    Language lang = Language::MustFromRegexString(regex);
    Language ifl = InfixFreeSublanguage(lang);
    ASSERT_FALSE(IsLocal(ifl)) << regex;
    bool four_legged = FindFourLeggedWitness(ifl, 8).has_value();
    bool has_xx = false;
    for (char x : ifl.used_letters()) {
      has_xx |= ifl.Contains(std::string(2, x));
    }
    EXPECT_TRUE(four_legged || has_xx) << regex;
  }
}

TEST(NeutralLetterTest, LocalWithNeutralLetterIsPtimeSide) {
  // Prp 5.7's tractable side: IF(e*ae*) = a is local.
  Language lang = Language::MustFromRegexString("e*ae*");
  ASSERT_TRUE(IsNeutralLetter(lang, 'e'));
  EXPECT_TRUE(IsLocal(InfixFreeSublanguage(lang)));
}

}  // namespace
}  // namespace rpqres
