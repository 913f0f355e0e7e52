// Tests for the Figure 1 classifier, parameterized over the full example
// set of the paper's figure.

#include <gtest/gtest.h>

#include <algorithm>

#include "automata/dfa.h"
#include "classify/classifier.h"
#include "lang/language.h"
#include "resilience/resilience.h"

namespace rpqres {
namespace {

struct Fig1Case {
  const char* regex;
  ComplexityClass expected;
  const char* rule_substring;
  const char* detail;
};

// The details shared by several rows.
constexpr char kLocal[] = "RO-εNFA product with D, then MinCut";
constexpr char kBcl[] =
    "per-fact flow network with forward/reversed word wiring";
constexpr char kOpenFinite[] =
    "not local/BCL/one-dangling; no repeated letter, not four-legged, "
    "star-free, no neutral letter";
constexpr char kOpenInfinite[] =
    "not local/BCL/one-dangling; infinite, no four-legged witness of at "
    "most 8 letters, star-free, no neutral letter";

class Fig1Test : public ::testing::TestWithParam<Fig1Case> {};

TEST_P(Fig1Test, MatchesPaperColumn) {
  const Fig1Case& c = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Result<Classification> classification = ClassifyResilience(lang);
  ASSERT_TRUE(classification.ok()) << classification.status();
  EXPECT_EQ(classification->complexity, c.expected)
      << c.regex << " classified as " << classification->rule;
  EXPECT_NE(classification->rule.find(c.rule_substring), std::string::npos)
      << c.regex << ": " << classification->rule;
  EXPECT_EQ(classification->detail, c.detail) << c.regex;
}

INSTANTIATE_TEST_SUITE_P(
    Figure1, Fig1Test,
    ::testing::Values(
        // PTIME column.
        Fig1Case{"abc|abd", ComplexityClass::kPtime, "local", kLocal},
        Fig1Case{"ab|ad|cd", ComplexityClass::kPtime, "local", kLocal},
        Fig1Case{"ax*b", ComplexityClass::kPtime, "local", kLocal},
        Fig1Case{"ab|bc", ComplexityClass::kPtime, "bipartite chain", kBcl},
        Fig1Case{"axb|byc", ComplexityClass::kPtime, "bipartite chain",
                 kBcl},
        Fig1Case{"abc|be", ComplexityClass::kPtime, "one-dangling",
                 "L = IF(abc|be) \\ {be} ∪ {be}"},
        Fig1Case{"abcd|ce", ComplexityClass::kPtime, "one-dangling",
                 "L = IF(abcd|ce) \\ {ce} ∪ {ce}"},
        Fig1Case{"abcd|be", ComplexityClass::kPtime, "one-dangling",
                 "L = IF(abcd|be) \\ {be} ∪ {be}"},
        Fig1Case{"ax*b|xd", ComplexityClass::kPtime, "one-dangling",
                 "L = IF(ax*b|xd) \\ {xd} ∪ {xd}"},
        // NP-hard column.
        Fig1Case{"axb|cxd", ComplexityClass::kNpHard, "four-legged",
                 "x-body, axb ∈ L, cxd ∈ L, axd ∉ L"},
        Fig1Case{"ax*b|cxd", ComplexityClass::kNpHard, "four-legged",
                 "x-body, axb ∈ L, cxd ∈ L, axd ∉ L"},
        Fig1Case{"b(aa)*d", ComplexityClass::kNpHard, "four-legged",
                 "a-body, baad ∈ L, baad ∈ L, baaad ∉ L"},
        Fig1Case{"aa", ComplexityClass::kNpHard, "repeated-letter",
                 "shortest repeated-letter word aa"},
        Fig1Case{"aaaa", ComplexityClass::kNpHard, "repeated-letter",
                 "shortest repeated-letter word aaaa"},
        Fig1Case{"abca|cab", ComplexityClass::kNpHard, "repeated-letter",
                 "shortest repeated-letter word abca"},
        Fig1Case{"ab|bc|ca", ComplexityClass::kNpHard, "Prp 7.4",
                 "matches ab|bc|ca up to renaming"},
        Fig1Case{"abcd|be|ef", ComplexityClass::kNpHard, "Prp 7.11",
                 "matches abcd|be|ef up to renaming"},
        Fig1Case{"abcd|bef", ComplexityClass::kNpHard, "Prp 7.11",
                 "matches abcd|bef up to renaming"},
        // Unclassified column.
        Fig1Case{"abc|bcd", ComplexityClass::kUnclassified, "no paper",
                 kOpenFinite},
        Fig1Case{"abc|bef", ComplexityClass::kUnclassified, "no paper",
                 kOpenFinite},
        Fig1Case{"ab*c|ba", ComplexityClass::kUnclassified, "no paper",
                 kOpenInfinite},
        Fig1Case{"ab*d|ac*d|bc", ComplexityClass::kUnclassified, "no paper",
                 kOpenInfinite}));

TEST(ClassifierTest, TrivialLanguages) {
  Result<Classification> c =
      ClassifyResilience(Language::MustFromRegexString("a*"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kTrivial);
  c = ClassifyResilience(Language::FromWords({}));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kTrivial);
}

TEST(ClassifierTest, ClassifiesOnInfixFreeSublanguage) {
  // L = a|aa: IF = a, local → PTIME even though L itself is not local.
  Result<Classification> c =
      ClassifyResilience(Language::MustFromRegexString("a|aa"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kPtime);
  EXPECT_EQ(c->if_language, "a");
}

TEST(ClassifierTest, FiniteIfLanguageDisplayIsBounded) {
  // IF(L) = L, of which if_language spells out the first 32 words and then
  // states the count, whatever the plan: (a|b) sixteen times (2^16 words,
  // an exact plan), and eleven groups of four letters (4^11 words, a local
  // plan).
  struct Case {
    std::string regex;
    std::string first_words;
    std::string count;
  };
  std::string binary;
  for (int i = 0; i < 16; ++i) binary += "(a|b)";
  const std::vector<Case> cases = {
      {binary, "aaaaaaaaaaaaaaaa|aaaaaaaaaaaaaaab|", "… (65536 words)"},
      {"(a|b|c|d)(e|f|g|h)(i|j|k|l)(m|n|o|p)(q|r|s|t)(u|v|w|x)(y|z|A|B)"
       "(C|D|E|F)(G|H|I|J)(K|L|M|N)(O|P|Q|R)",
       "aeimquACGKO|aeimquACGKP|", "… (4194304 words)"},
  };
  for (const Case& c : cases) {
    Result<Classification> verdict =
        ClassifyResilience(Language::MustFromRegexString(c.regex));
    ASSERT_TRUE(verdict.ok()) << verdict.status();
    EXPECT_TRUE(verdict->finite);
    const std::string& shown = verdict->if_language;
    EXPECT_LT(shown.size(), 1024u);
    EXPECT_EQ(std::count(shown.begin(), shown.end(), '|'), 31) << shown;
    EXPECT_EQ(shown.rfind(c.first_words, 0), 0u) << shown;
    EXPECT_NE(shown.find(c.count), std::string::npos) << shown;
  }
}

TEST(ClassifierTest, FiniteIfLanguageWordCountSaturates) {
  // s·w·t, w any increasing sequence of 64 middle letters: a local,
  // infix-free language of 2^64 words, past what a word count holds.
  std::vector<char> letters;
  for (char c = '0'; letters.size() < 66; ++c) letters.push_back(c);
  Dfa dfa(letters, 67);  // state i + 1: letters[i] was read last
  dfa.set_initial(0);
  dfa.SetTransition(0, letters[0], 1);
  for (int from = 1; from < 66; ++from) {
    for (int i = from; i < 66; ++i) dfa.SetTransition(from, letters[i], i + 1);
  }
  dfa.SetFinal(66);
  Result<Classification> verdict =
      ClassifyResilience(Language::FromDfa(dfa));
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_EQ(verdict->complexity, ComplexityClass::kPtime);
  EXPECT_NE(verdict->if_language.find(
                "… (at least 9223372036854775807 words)"),
            std::string::npos)
      << verdict->if_language;
}

TEST(ClassifierTest, RepeatedLetterWordPastTheShownWords) {
  // IF(L) = L has 65 words, and only the last, xyzx, repeats a letter: it
  // is not among the 32 shown, and the Thm 6.1 rule still finds it.
  Result<Classification> c = ClassifyResilience(
      Language::MustFromRegexString("(a|b|c|d|e|f|g|h)(i|j|k|l|m|n|o|p)|xyzx"));
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->complexity, ComplexityClass::kNpHard);
  EXPECT_EQ(c->rule, "finite with repeated-letter word (Thm 6.1)");
  EXPECT_EQ(c->detail, "shortest repeated-letter word xyzx");
  EXPECT_EQ(c->if_language.find("xyzx"), std::string::npos) << c->if_language;
  EXPECT_NE(c->if_language.find("… (65 words)"), std::string::npos)
      << c->if_language;
}

TEST(ClassifierTest, VerdictIsReadOffThePlan) {
  // The PTIME verdict is the solver the plan picked, and the one-dangling
  // detail is the decomposition its tables hold.
  Language lang = Language::MustFromRegexString("abc|be");
  Result<ResiliencePlan> plan = PlanResilience(lang);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->method, ResilienceMethod::kOneDanglingFlow);
  Result<Classification> c = ClassifyResilienceWithPlan(lang, *plan);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->complexity, ComplexityClass::kPtime);
  EXPECT_EQ(c->rule, "one-dangling language (Prp 7.9)");
  EXPECT_EQ(c->detail, "L = IF(abc|be) \\ {be} ∪ {be}");
  // A method the kAuto dispatch never picks is not a plan to classify.
  plan->method = ResilienceMethod::kBruteForce;
  EXPECT_EQ(ClassifyResilienceWithPlan(lang, *plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClassifierTest, RenamedHardLanguagesDetected) {
  // xy|yz|zx is ab|bc|ca up to renaming; qrst|rw is abcd|be renamed
  // (one-dangling, PTIME).
  Result<Classification> c =
      ClassifyResilience(Language::MustFromRegexString("xy|yz|zx"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kNpHard);

  c = ClassifyResilience(Language::MustFromRegexString("qrst|rw"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kPtime);
}

TEST(ClassifierTest, NonBipartiteChainBeyondThePaper) {
  // The paper proves only ab|bc|ca hard and conjectures the rest; the
  // classifier certifies further non-bipartite chains via verified
  // gadgets (Prp 4.11).
  for (const char* regex : {"axb|byc|cza", "ab|bc|cd|de|ea"}) {
    Result<Classification> c =
        ClassifyResilience(Language::MustFromRegexString(regex));
    ASSERT_TRUE(c.ok()) << regex;
    EXPECT_EQ(c->complexity, ComplexityClass::kNpHard) << regex;
    EXPECT_NE(c->rule.find("verified gadget"), std::string::npos)
        << regex << ": " << c->rule;
  }
}

TEST(ClassifierTest, NeutralLetterDichotomy) {
  // Prp 5.7's hard side: L2 = e*(a|c)e*(a|d)e* has neutral e and
  // non-local IF containing aa — classified NP-hard. The repeated-letter
  // rule does not fire because IF is infinite, IF is not four-legged and
  // star-free, so the neutral-letter rule decides; no Figure 1 row
  // reaches it.
  Result<Classification> c = ClassifyResilience(
      Language::MustFromRegexString("e*(a|c)e*(a|d)e*"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->complexity, ComplexityClass::kNpHard) << c->rule;
  EXPECT_EQ(c->rule, "neutral letter + non-local (Prp 5.7)");
  EXPECT_EQ(c->detail, "neutral letter 'e'");
}

TEST(ClassifierTest, ReportRendering) {
  Language lang = Language::MustFromRegexString("ax*b");
  Result<Classification> c = ClassifyResilience(lang);
  ASSERT_TRUE(c.ok());
  std::string report = ClassificationReport(lang, *c);
  EXPECT_NE(report.find("ax*b"), std::string::npos);
  EXPECT_NE(report.find("PTIME"), std::string::npos);
}

TEST(ClassifierTest, ComplexityClassNames) {
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kPtime), "PTIME");
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kNpHard), "NP-hard");
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kUnclassified),
               "UNCLASSIFIED");
  EXPECT_STREQ(ComplexityClassName(ComplexityClass::kTrivial), "trivial");
}

}  // namespace
}  // namespace rpqres
