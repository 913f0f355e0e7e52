// Tests for local languages (Section 3.1): local profiles, the local
// overapproximation (Def 3.8), the locality test (Prp 3.12), local DFAs
// (Def 3.1), letter-Cartesian languages (Def 3.3, Prp 3.5), and RO-εNFAs
// (Def 3.15, Lem 3.17).

#include <gtest/gtest.h>

#include "automata/ops.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/ro_enfa.h"

namespace rpqres {
namespace {

TEST(LocalProfileTest, AxStarB) {
  Language lang = Language::MustFromRegexString("ax*b");
  LocalProfile p = ComputeLocalProfile(lang);
  EXPECT_EQ(p.start_letters, (std::vector<char>{'a'}));
  EXPECT_EQ(p.end_letters, (std::vector<char>{'b'}));
  EXPECT_EQ(p.pairs, (std::vector<std::pair<char, char>>{
                         {'a', 'b'}, {'a', 'x'}, {'x', 'b'}, {'x', 'x'}}));
  EXPECT_FALSE(p.contains_epsilon);
}

TEST(LocalProfileTest, Example32AbAdCd) {
  Language lang = Language::MustFromRegexString("ab|ad|cd");
  LocalProfile p = ComputeLocalProfile(lang);
  EXPECT_EQ(p.start_letters, (std::vector<char>{'a', 'c'}));
  EXPECT_EQ(p.end_letters, (std::vector<char>{'b', 'd'}));
  EXPECT_EQ(p.pairs, (std::vector<std::pair<char, char>>{
                         {'a', 'b'}, {'a', 'd'}, {'c', 'd'}}));
}

TEST(LocalProfileTest, EpsilonDetected) {
  Language lang = Language::MustFromRegexString("a*");
  LocalProfile p = ComputeLocalProfile(lang);
  EXPECT_TRUE(p.contains_epsilon);
}

TEST(LocalTest, PaperPositiveExamples) {
  for (const char* regex :
       {"ax*b", "ab|ad|cd", "abc|abd", "a", "a|b", "a*", "x+",
        "a(x|y)*b", "ab|ad|cb|cd"}) {
    EXPECT_TRUE(IsLocal(Language::MustFromRegexString(regex))) << regex;
  }
}

TEST(LocalTest, PaperNegativeExamples) {
  // Example 3.4: aa is not local; four-legged and chain examples are not
  // local either (Example 7.3 "none of these languages are local").
  for (const char* regex :
       {"aa", "axb|cxd", "ab|bc", "axb|byc", "ab|bc|ca", "abc|bcd",
        "b(aa)*d", "aaaa"}) {
    EXPECT_FALSE(IsLocal(Language::MustFromRegexString(regex))) << regex;
  }
}

TEST(LocalTest, EmptyAndEpsilonLanguages) {
  EXPECT_TRUE(IsLocal(Language::FromWords({})));
  EXPECT_TRUE(IsLocal(Language::FromWords({""})));
}

TEST(LocalOverapproximationTest, IsAlwaysLocalAndSuperset) {
  // Claim 3.9: L(A) ⊇ L for the overapproximation A, local by
  // construction, even for non-local L.
  for (const char* regex : {"aa", "axb|cxd", "ab|bc", "ax*b", "ab|ad|cd"}) {
    Language lang = Language::MustFromRegexString(regex);
    Dfa over = LocalOverapproximationDfa(ComputeLocalProfile(lang));
    EXPECT_TRUE(IsLocalDfa(over)) << regex;
    EXPECT_TRUE(IsSubsetOf(lang.min_dfa(), Minimize(over))) << regex;
    EXPECT_TRUE(IsLocal(Language::FromDfa(over))) << regex;
  }
}

TEST(LocalOverapproximationTest, AaOverapproximationIsAPlus) {
  // For aa: Σ_start = Σ_end = {a}, Π = {aa}; the overapproximation is a+.
  Language aa = Language::MustFromRegexString("aa");
  Dfa over = LocalOverapproximationDfa(ComputeLocalProfile(aa));
  EXPECT_TRUE(AreEquivalent(
      Minimize(over), Language::MustFromRegexString("a+").min_dfa()));
}

TEST(IsLocalDfaTest, DetectsViolation) {
  // Two a-transitions with different targets.
  Dfa dfa(std::vector<char>{'a'}, 3);
  dfa.set_initial(0);
  dfa.SetFinal(1);
  dfa.SetFinal(2);
  dfa.SetTransition(0, 'a', 1);
  dfa.SetTransition(1, 'a', 2);
  EXPECT_FALSE(IsLocalDfa(dfa));
}

TEST(LetterCartesianTest, Definition33Examples) {
  // Example 3.4: {aa} is not letter-Cartesian (aaa would be required).
  EXPECT_FALSE(IsLetterCartesian({"aa"}));
  // No finite language with a repeated-letter word can be
  // letter-Cartesian (Lem 6.2's pumping argument).
  EXPECT_FALSE(IsLetterCartesian({"aa", "aaa", "aaaa"}));
  // ab|ad|cd: crossing on 'a' or 'd' yields only words already present
  // (cb would be required only if c..b were joinable, which they are not:
  // they never flank a shared letter).
  EXPECT_TRUE(IsLetterCartesian({"ab", "ad", "cd"}));
  EXPECT_TRUE(IsLetterCartesian({"ab", "ad", "cd", "cb"}));
  // axb|cxd requires the cross word axd.
  EXPECT_FALSE(IsLetterCartesian({"axb", "cxd"}));
}

// Prp 3.5 as a property test: for finite languages, local ⇔
// letter-Cartesian.
class Prp35Test : public ::testing::TestWithParam<const char*> {};

TEST_P(Prp35Test, LocalIffLetterCartesian) {
  Language lang = Language::MustFromRegexString(GetParam());
  ASSERT_TRUE(lang.IsFinite());
  EXPECT_EQ(IsLocal(lang), IsLetterCartesian(*lang.Words())) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(FiniteLanguages, Prp35Test,
                         ::testing::Values("aa", "ab|ad|cd", "abc|abd",
                                           "ab|bc", "axb|cxd", "ab|bc|ca",
                                           "abc|bcd", "abcd|be", "a|b",
                                           "aab", "abc|be", "abca|cab"));

TEST(RoEnfaTest, IsRoEnfaDetection) {
  Enfa a;
  a.AddStates(3);
  a.AddTransition(0, 'a', 1);
  a.AddTransition(1, kEpsilonSymbol, 2);
  EXPECT_TRUE(IsRoEnfa(a));
  a.AddTransition(2, 'a', 0);  // second a-transition
  EXPECT_FALSE(IsRoEnfa(a));
}

TEST(RoEnfaTest, Example316LocalDfaNotNecessarilyRo) {
  // The local DFA for ab|ad|cd (Fig 2b) has two d-transitions, so it is
  // not read-once, but BuildRoEnfa produces an equivalent RO-εNFA
  // (Fig 2c).
  Language lang = Language::MustFromRegexString("ab|ad|cd");
  Dfa local_dfa = LocalOverapproximationDfa(ComputeLocalProfile(lang));
  int d_transitions = 0;
  for (int s = 0; s < local_dfa.num_states(); ++s) {
    if (local_dfa.Next(s, 'd') != kNoState) ++d_transitions;
  }
  EXPECT_GT(d_transitions, 1);

  Result<Enfa> ro = BuildRoEnfa(lang);
  ASSERT_TRUE(ro.ok());
  EXPECT_TRUE(IsRoEnfa(*ro));
  EXPECT_TRUE(AreEquivalent(MinimalDfa(*ro), lang.min_dfa()));
}

TEST(RoEnfaTest, FailsOnNonLocal) {
  for (const char* regex : {"aa", "axb|cxd", "ab|bc"}) {
    Result<Enfa> ro = BuildRoEnfa(Language::MustFromRegexString(regex));
    EXPECT_FALSE(ro.ok()) << regex;
    EXPECT_EQ(ro.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(RoEnfaTest, SizeBound) {
  // Lem 3.17 construction: ≤ 2|Σ| + 1 states.
  for (const char* regex : {"ax*b", "ab|ad|cd", "a(x|y)*b"}) {
    Language lang = Language::MustFromRegexString(regex);
    Result<Enfa> ro = BuildRoEnfa(lang);
    ASSERT_TRUE(ro.ok()) << regex;
    EXPECT_LE(ro->num_states(),
              2 * static_cast<int>(lang.used_letters().size()) + 1);
  }
}

class RoEnfaRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoEnfaRoundTripTest, RecognizesExactlyL) {
  Language lang = Language::MustFromRegexString(GetParam());
  Result<Enfa> ro = BuildRoEnfa(lang);
  ASSERT_TRUE(ro.ok()) << GetParam();
  EXPECT_TRUE(IsRoEnfa(*ro));
  EXPECT_TRUE(AreEquivalent(MinimalDfa(*ro), lang.min_dfa()));
}

INSTANTIATE_TEST_SUITE_P(LocalLanguages, RoEnfaRoundTripTest,
                         ::testing::Values("ax*b", "ab|ad|cd", "abc|abd",
                                           "a", "a|b", "x+", "a(x|y)*b",
                                           "ab|ad|cb|cd", "a*"));

}  // namespace
}  // namespace rpqres
