// Tests for one-dangling languages (Def 7.8): decompositions, freshness
// conditions, mirror handling, and the Figure 1 examples.

#include <gtest/gtest.h>

#include "lang/language.h"
#include "lang/local.h"
#include "lang/one_dangling.h"

namespace rpqres {
namespace {

TEST(OneDanglingTest, Fig1Examples) {
  // abc|be, abcd|ce, abcd|be, ax*b|xd are the Fig 1 one-dangling examples.
  struct Case {
    const char* regex;
    char x, y;
  };
  for (const Case& c : {Case{"abc|be", 'b', 'e'}, Case{"abcd|ce", 'c', 'e'},
                        Case{"abcd|be", 'b', 'e'},
                        Case{"ax*b|xd", 'x', 'd'}}) {
    Language lang = Language::MustFromRegexString(c.regex);
    std::optional<OneDanglingDecomposition> d =
        FindOneDanglingDecomposition(lang);
    ASSERT_TRUE(d.has_value()) << c.regex;
    EXPECT_EQ(d->x, c.x) << c.regex;
    EXPECT_EQ(d->y, c.y) << c.regex;
    EXPECT_TRUE(IsLocal(d->base)) << c.regex;
    EXPECT_FALSE(d->y_in_base) << c.regex;
  }
}

TEST(OneDanglingTest, PureDanglingWord) {
  // L = {xy} alone: base = ∅ (local), both letters fresh.
  Language lang = Language::MustFromRegexString("xy");
  std::optional<OneDanglingDecomposition> d =
      FindOneDanglingDecomposition(lang);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->base.IsEmpty());
  EXPECT_FALSE(d->x_in_base);
  EXPECT_FALSE(d->y_in_base);
}

TEST(OneDanglingTest, RejectsWhenBothLettersInBase) {
  // ab|ba: removing ab leaves ba which uses both a and b.
  EXPECT_FALSE(
      FindOneDanglingDecomposition(Language::MustFromRegexString("ab|ba"))
          .has_value());
}

TEST(OneDanglingTest, RejectsWhenBaseNotLocal) {
  // aa|be: base aa is not local.
  EXPECT_FALSE(
      FindOneDanglingDecomposition(Language::MustFromRegexString("aa|be"))
          .has_value());
}

TEST(OneDanglingTest, RejectsEqualLetters) {
  // Def 7.8 requires x ≠ y: abc|bb does not qualify via bb.
  EXPECT_FALSE(
      FindOneDanglingDecomposition(Language::MustFromRegexString("abc|bb"))
          .has_value());
}

TEST(OneDanglingTest, MirrorCase) {
  // abc|ea: its mirror cba|ae = cba ∪ {ae} has e fresh as the LAST
  // letter; abc|ea itself decomposes directly with the fresh letter first
  // (x = e ∉ base), as Def 7.8's symmetry in x and y says it must.
  Language lang = Language::MustFromRegexString("abc|ea");
  std::optional<OneDanglingDecomposition> direct =
      FindOneDanglingDecomposition(lang);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->x, 'e');
  EXPECT_FALSE(direct->x_in_base);
  EXPECT_TRUE(direct->y_in_base);  // a occurs in abc
  std::optional<OneDanglingDecomposition> mirrored =
      FindOneDanglingDecomposition(lang.Mirror());
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_EQ(mirrored->x, 'a');
  EXPECT_EQ(mirrored->y, 'e');
  EXPECT_TRUE(mirrored->x_in_base);
  EXPECT_FALSE(mirrored->y_in_base);
}

TEST(OneDanglingTest, XInBaseCase) {
  // ax*b|xd: x ∈ Σ(base), d fresh — the interesting Prp 7.9 case.
  Language lang = Language::MustFromRegexString("ax*b|xd");
  std::optional<OneDanglingDecomposition> d =
      FindOneDanglingDecomposition(lang);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->x_in_base);
  EXPECT_FALSE(d->y_in_base);
  EXPECT_TRUE(
      d->base.EquivalentTo(Language::MustFromRegexString("ax*b")));
}

TEST(OneDanglingTest, NotOneDangling) {
  for (const char* regex :
       {"aa", "axb|cxd", "abc|bcd", "abcd|be|ef", "abcd|bef"}) {
    Language lang = Language::MustFromRegexString(regex);
    EXPECT_FALSE(FindOneDanglingDecomposition(lang).has_value()) << regex;
    EXPECT_FALSE(FindOneDanglingDecomposition(lang.Mirror()).has_value())
        << regex;
  }
}

TEST(OneDanglingTest, BclCanAlsoBeOneDangling) {
  // ab|bc is {bc} ∪ {ab} with a fresh — simultaneously a BCL (Prp 7.6)
  // and one-dangling (Prp 7.9). Both PTIME algorithms apply.
  Language lang = Language::MustFromRegexString("ab|bc");
  std::optional<OneDanglingDecomposition> d =
      FindOneDanglingDecomposition(lang);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->x, 'a');
  EXPECT_EQ(d->y, 'b');
  EXPECT_FALSE(d->x_in_base);
  EXPECT_TRUE(d->y_in_base);  // the solver must mirror
}

TEST(OneDanglingTest, LongDanglingWordDoesNotQualify) {
  // The dangling word must have length exactly 2: abc|bef is not
  // one-dangling (and is in fact NP-hard, Prp 7.11).
  EXPECT_FALSE(FindOneDanglingDecomposition(
                   Language::MustFromRegexString("abcd|bef"))
                   .has_value());
}

}  // namespace
}  // namespace rpqres
