// Tests for the Language wrapper: construction routes, membership, word
// enumeration, mirror, used letters.

#include <gtest/gtest.h>

#include "automata/ops.h"
#include "automata/thompson.h"
#include "lang/language.h"
#include "regex/parser.h"

namespace rpqres {
namespace {

TEST(LanguageTest, FromRegexStringMembership) {
  Language lang = Language::MustFromRegexString("ax*b|cxd");
  EXPECT_TRUE(lang.Contains("ab"));
  EXPECT_TRUE(lang.Contains("axxb"));
  EXPECT_TRUE(lang.Contains("cxd"));
  EXPECT_FALSE(lang.Contains("axd"));
  EXPECT_FALSE(lang.Contains(""));
  EXPECT_EQ(lang.description(), "ax*b|cxd");
}

TEST(LanguageTest, FromRegexStringRejectsBadInput) {
  EXPECT_FALSE(Language::FromRegexString("a||b").ok());
  EXPECT_FALSE(Language::FromRegexString("(").ok());
}

TEST(LanguageTest, FromWords) {
  Language lang = Language::FromWords({"ab", "cd", ""});
  EXPECT_TRUE(lang.Contains("ab"));
  EXPECT_TRUE(lang.Contains(""));
  EXPECT_TRUE(lang.ContainsEpsilon());
  EXPECT_FALSE(lang.Contains("ac"));
  EXPECT_EQ(lang.description(), "ab|cd|ε");
}

TEST(LanguageTest, EmptyLanguage) {
  Language lang = Language::FromWords({});
  EXPECT_TRUE(lang.IsEmpty());
  EXPECT_TRUE(lang.IsFinite());
  EXPECT_FALSE(lang.ContainsEpsilon());
  EXPECT_TRUE(lang.used_letters().empty());
  EXPECT_EQ(lang.ShortestWord(), std::nullopt);
}

TEST(LanguageTest, UsedLettersIgnoresDeadBranches) {
  // (a|b)c ∩ ac-complement leaves bc; but here simply test that unused
  // letters of the minimal DFA's completion don't leak in.
  Language lang = Language::MustFromRegexString("abc");
  EXPECT_EQ(lang.used_letters(), (std::vector<char>{'a', 'b', 'c'}));
  // Difference that kills a letter entirely.
  Language diff = Language::FromDfa(
      DifferenceDfa(Language::MustFromRegexString("ab|cd").min_dfa(),
                    Language::MustFromRegexString("cd").min_dfa()));
  EXPECT_EQ(diff.used_letters(), (std::vector<char>{'a', 'b'}));
}

TEST(LanguageTest, FinitenessAndWords) {
  Language finite = Language::MustFromRegexString("ab|ad|cd");
  ASSERT_TRUE(finite.IsFinite());
  EXPECT_EQ(*finite.Words(),
            (std::vector<std::string>{"ab", "ad", "cd"}));
  Language infinite = Language::MustFromRegexString("ax*b");
  EXPECT_FALSE(infinite.IsFinite());
  EXPECT_FALSE(infinite.Words().ok());
  EXPECT_EQ(*infinite.WordsUpTo(3),
            (std::vector<std::string>{"ab", "axb"}));
}

TEST(LanguageTest, ShortestWord) {
  EXPECT_EQ(Language::MustFromRegexString("ax*b").ShortestWord().value(),
            "ab");
  EXPECT_EQ(Language::MustFromRegexString("ba|ab").ShortestWord().value(),
            "ab");
}

TEST(LanguageTest, MirrorInvolution) {
  Language lang = Language::MustFromRegexString("abc|de");
  Language mirrored = lang.Mirror();
  EXPECT_TRUE(mirrored.Contains("cba"));
  EXPECT_TRUE(mirrored.Contains("ed"));
  EXPECT_FALSE(mirrored.Contains("abc"));
  EXPECT_TRUE(mirrored.Mirror().EquivalentTo(lang));
}

TEST(LanguageTest, EquivalentTo) {
  Language a = Language::MustFromRegexString("a(ba)*");
  Language b = Language::MustFromRegexString("(ab)*a");
  Language c = Language::MustFromRegexString("ab");
  EXPECT_TRUE(a.EquivalentTo(b));
  EXPECT_FALSE(a.EquivalentTo(c));
}

TEST(LanguageTest, FromEnfaAndFromDfaAgree) {
  Enfa e = ThompsonEnfa(MustParseRegex("ab|ad|cd"));
  Language from_enfa = Language::FromEnfa(e);
  Language from_dfa = Language::FromDfa(MinimalDfa(e));
  EXPECT_TRUE(from_enfa.EquivalentTo(from_dfa));
}

// Property sweep: Thompson's εNFA and the language's minimal DFA agree on
// membership.
class LanguageAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LanguageAgreementTest, EnfaAndDfaAgree) {
  Language lang = Language::MustFromRegexString(GetParam());
  // All words up to length 4 over the used alphabet.
  const std::vector<char>& sigma = lang.used_letters();
  std::vector<std::string> words{""};
  for (int round = 0; round < 4; ++round) {
    size_t start = words.size() == 1 ? 0 : words.size() - 1;
    std::vector<std::string> next(words.begin() + start, words.end());
    for (const std::string& w : next) {
      for (char c : sigma) words.push_back(w + c);
    }
  }
  const Enfa enfa = ThompsonEnfa(MustParseRegex(GetParam()));
  for (const std::string& w : words) {
    EXPECT_EQ(enfa.Accepts(w), lang.min_dfa().Accepts(w))
        << GetParam() << " disagrees on " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperLanguages, LanguageAgreementTest,
                         ::testing::Values("aa", "ax*b", "ab|ad|cd",
                                           "axb|cxd", "b(aa)*d", "ab|bc|ca",
                                           "abcd|be|ef", "ab*d|ac*d|bc",
                                           "a(b|c)*d"));

}  // namespace
}  // namespace rpqres
