// Tests for the executable Theorem 6.1 pipeline: for a spread of finite
// repeated-letter languages, the pipeline picks the proof case the paper
// prescribes and produces a gadget that verifies (condensation to an odd
// path) against the (possibly mirrored) infix-free language.

#include <gtest/gtest.h>

#include "gadgets/thm61.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "language_sweep.h"

namespace rpqres {
namespace {

struct Thm61Case {
  const char* regex;
  const char* case_substring;  // expected proof case
};

class Thm61PipelineTest : public ::testing::TestWithParam<Thm61Case> {};

TEST_P(Thm61PipelineTest, BuildsAVerifiedGadget) {
  const Thm61Case& c = GetParam();
  Language lang = Language::MustFromRegexString(c.regex);
  Result<Thm61Gadget> built = BuildThm61Gadget(lang);
  ASSERT_TRUE(built.ok()) << c.regex << ": " << built.status();
  EXPECT_NE(built->proof_case.find(c.case_substring), std::string::npos)
      << c.regex << " went through: " << built->proof_case;

  Language target = InfixFreeSublanguage(lang);
  if (built->mirrored) target = target.Mirror();
  Result<GadgetVerification> v = VerifyGadget(target, built->gadget);
  ASSERT_TRUE(v.ok()) << c.regex << ": " << v.status();
  EXPECT_TRUE(v->valid) << c.regex << " (" << built->proof_case
                        << "): " << v->reason;
}

INSTANTIATE_TEST_SUITE_P(
    ProofCases, Thm61PipelineTest,
    ::testing::Values(
        // Lemma 6.6 family (no infix of γaγ).
        Thm61Case{"aa", "Lem 6.6, δ = ε"},
        Thm61Case{"aba", "Lem 6.6, δ = ε"},
        Thm61Case{"abca", "Lem 6.6, δ = ε"},
        Thm61Case{"abcda", "Lem 6.6, δ = ε"},
        Thm61Case{"abab", "Lem 6.6, δ ≠ ε"},
        Thm61Case{"abacc", "Lem 6.6, δ ≠ ε"},
        // γ = ε with trailing δ: generalized Fig 11.
        Thm61Case{"aab", "γ = ε"},
        Thm61Case{"aabc", "γ = ε"},
        // Mirror branch (β ≠ ε, δ = ε).
        Thm61Case{"caa", "γ = ε"},
        Thm61Case{"cbaa", "γ = ε"},
        // Overlapping case.
        Thm61Case{"aaa", "aaa"},
        Thm61Case{"aba|bab", "aba+bab"},
        // axa|aax: no straddling infix of x·a·x is in L, so Lem 6.6
        // applies directly.
        Thm61Case{"axa|aax", "Lem 6.6"},
        // Four-legged exits (the second language also admits a Case-1
        // witness — a·x·d cross with parasite-free c·x·xxb — so either
        // case certifies it).
        Thm61Case{"axxb|cxxd", "four-legged, Case 1"},
        Thm61Case{"axxb|cxxd|cxxb", "four-legged"}));

TEST(Thm61PipelineTest, RequirementsEnforced) {
  // Infinite language.
  EXPECT_EQ(BuildThm61Gadget(Language::MustFromRegexString("ax*b"))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // No repeated letter.
  EXPECT_EQ(BuildThm61Gadget(Language::MustFromRegexString("abc"))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Trivial.
  EXPECT_EQ(BuildThm61Gadget(Language::FromWords({})).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Thm61PipelineTest, ReconstructionGapsReportedAsNotFound) {
  // axya|yax and abca|cab reach Claim 6.13 with x, y ≠ a, which needs the
  // Fig 12 gadget; aaaa is four-legged with unary legs, which our Fig 6
  // reconstruction cannot express. The paper text does not fix the wiring
  // of either figure, and no candidate for them verifies here.
  for (const char* regex : {"axya|yax", "abca|cab", "aaaa"}) {
    Result<Thm61Gadget> built =
        BuildThm61Gadget(Language::MustFromRegexString(regex));
    EXPECT_FALSE(built.ok()) << regex;
    if (!built.ok()) {
      EXPECT_EQ(built.status().code(), StatusCode::kNotFound) << regex;
    }
  }
}

TEST(Thm61PipelineTest, WordListPastItsCapIsLoggedNotFatal) {
  // (a|b|c|d)×11 has 4^11 words, more than the maximal-gap word list
  // holds: both orientations log the OutOfRange, the four-legged exits
  // still run (into the Fig 6 gap), and the pipeline returns a status.
  Result<Thm61Gadget> built = BuildThm61Gadget(
      Language::MustFromRegexString(RepeatedGroup("(a|b|c|d)", 11)));
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
  const std::string& log = built.status().message();
  EXPECT_NE(log.find("[maximal-gap word] OutOfRange"), std::string::npos)
      << log;
  EXPECT_NE(log.find("[maximal-gap word, mirrored] OutOfRange"),
            std::string::npos)
      << log;
  EXPECT_NE(log.find("[four-legged, Case 2 (Fig 6)]"), std::string::npos)
      << log;
}

TEST(Thm61PipelineTest, UsesInfixFreeSublanguage) {
  // L = aa|aab: IF = aa (aab contains aa) → the aa gadget.
  Result<Thm61Gadget> built =
      BuildThm61Gadget(Language::MustFromRegexString("aa|aab"));
  ASSERT_TRUE(built.ok()) << built.status();
  Language target =
      InfixFreeSublanguage(Language::MustFromRegexString("aa|aab"));
  Result<GadgetVerification> v = VerifyGadget(target, built->gadget);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->valid);
}

}  // namespace
}  // namespace rpqres
