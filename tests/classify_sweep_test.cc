// Exhaustive robustness sweep: classify *every* language with at most two
// words of length <= 3 over {a, b, c} (780 languages) and check that the
// verdicts are internally consistent (then pin, over those languages and
// generated ones, the facts the compile-time tests rest on):
//   * classification never errors;
//   * PTIME verdicts are backed by an applicable flow solver whose answer
//     matches brute force on a random instance;
//   * NP-hard verdicts on finite languages come with a paper-sanctioned
//     reason (repeated letter, four-legged, or a known gadget language);
//   * UNCLASSIFIED verdicts are genuinely outside every implemented class.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "classify/classifier.h"
#include "graphdb/generators.h"
#include "lang/chain.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/one_dangling.h"
#include "lang/repeated_letter.h"
#include "lang/ro_enfa.h"
#include "language_sweep.h"
#include "resilience/exact.h"
#include "resilience/resilience.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rpqres {
namespace {

TEST(ClassifierSweepTest, AllSmallLanguagesConsistent) {
  Rng rng(20260610);
  int counts[3] = {0, 0, 0};  // PTIME, NP-hard, unclassified
  int solver_checks = 0;

  auto handle = [&](const std::vector<std::string>& language_words) {
    Language lang = Language::FromWords(language_words);
    Result<Classification> c = ClassifyResilience(lang);
    ASSERT_TRUE(c.ok()) << lang.description() << ": " << c.status();
    Language ifl = InfixFreeSublanguage(lang);

    switch (c->complexity) {
      case ComplexityClass::kTrivial:
        ADD_FAILURE() << lang.description()
                      << ": non-empty ε-free languages are never trivial";
        break;
      case ComplexityClass::kPtime: {
        ++counts[0];
        bool backed = IsLocal(ifl) || IsBipartiteChainLanguage(ifl) ||
                      FindOneDanglingDecomposition(ifl).has_value();
        EXPECT_TRUE(backed) << lang.description() << " via " << c->rule;
        // Spot-check the routed solver against brute force (sampled to
        // keep the sweep fast).
        if (rng.NextChance(1, 8)) {
          GraphDb db = RandomGraphDb(&rng, 4, 8, {'a', 'b', 'c'});
          ResilienceOptions no_exponential;
          no_exponential.allow_exponential = false;
          Result<ResilienceResult> flow = ComputeResilience(
              lang, db, Semantics::kSet, no_exponential);
          Result<ResilienceResult> brute =
              SolveBruteForceResilience(lang, db, Semantics::kSet);
          ASSERT_TRUE(flow.ok()) << lang.description() << ": "
                                 << flow.status();
          ASSERT_TRUE(brute.ok());
          EXPECT_EQ(flow->value, brute->value)
              << lang.description() << "\n"
              << db.ToString();
          ++solver_checks;
        }
        break;
      }
      case ComplexityClass::kNpHard: {
        ++counts[1];
        // Finite NP-hard verdicts must be justified by Thm 6.1, Thm 5.3,
        // or a known gadget language.
        EXPECT_TRUE(HasRepeatedLetterWord(ifl) ||
                    FindFourLeggedWitness(ifl).has_value() ||
                    c->rule.find("Prp 7.4") != std::string::npos ||
                    c->rule.find("Prp 7.11") != std::string::npos)
            << lang.description() << " via " << c->rule;
        // And never overlap a tractable class.
        EXPECT_FALSE(IsLocal(ifl)) << lang.description();
        EXPECT_FALSE(IsBipartiteChainLanguage(ifl)) << lang.description();
        EXPECT_FALSE(FindOneDanglingDecomposition(ifl).has_value())
            << lang.description();
        break;
      }
      case ComplexityClass::kUnclassified: {
        ++counts[2];
        EXPECT_FALSE(IsLocal(ifl)) << lang.description();
        EXPECT_FALSE(IsBipartiteChainLanguage(ifl)) << lang.description();
        EXPECT_FALSE(FindOneDanglingDecomposition(ifl).has_value())
            << lang.description();
        EXPECT_FALSE(HasRepeatedLetterWord(ifl)) << lang.description();
        EXPECT_FALSE(FindFourLeggedWitness(ifl).has_value())
            << lang.description();
        break;
      }
    }
  };

  for (const std::vector<std::string>& word_set : SmallWordSets()) {
    handle(word_set);
  }

  // The sweep covers all three columns of Figure 1 and actually ran the
  // sampled solver checks.
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
  EXPECT_GT(solver_checks, 10);
  RecordProperty("ptime", counts[0]);
  RecordProperty("nphard", counts[1]);
  RecordProperty("unclassified", counts[2]);
}

// The sweep languages and 1,000 generated regexes, with IF(L) of each:
// the inputs of the facts below.
std::vector<Language> FactLanguages() {
  std::vector<Language> languages;
  for (const std::vector<std::string>& words : SmallWordSets()) {
    languages.push_back(Language::FromWords(words));
  }
  for (const std::string& regex : GeneratedRegexes(25, 1000)) {
    languages.push_back(Language::MustFromRegexString(regex));
  }
  const size_t given = languages.size();
  for (size_t i = 0; i < given; ++i) {
    languages.push_back(InfixFreeSublanguage(languages[i]));
  }
  return languages;
}

// Def 7.8 is symmetric in x and y and local languages are closed under
// reversal, so the plan never retries the search on Mirror(L).
TEST(CompileFactsTest, OneDanglingIsMirrorSymmetric) {
  int decomposed = 0;
  for (const Language& lang : FactLanguages()) {
    const bool direct = FindOneDanglingDecomposition(lang).has_value();
    EXPECT_EQ(direct,
              FindOneDanglingDecomposition(lang.Mirror()).has_value())
        << lang.description();
    decomposed += direct ? 1 : 0;
  }
  EXPECT_GT(decomposed, 100);
}

// L local implies IF(L) local, so CompileQuery tries the fixed-endpoint
// tables of L only for a local or trivial plan.
TEST(CompileFactsTest, LocalLanguagesPlanLocalOrTrivial) {
  int local = 0;
  for (const Language& lang : FactLanguages()) {
    if (!BuildRoEnfa(lang).ok()) continue;
    ++local;
    Result<ResiliencePlan> plan = PlanResilience(lang);
    ASSERT_TRUE(plan.ok()) << lang.description() << ": " << plan.status();
    EXPECT_TRUE(plan->method == ResilienceMethod::kLocalFlow ||
                plan->trivial_infinite || plan->trivial_empty)
        << lang.description();
  }
  EXPECT_GT(local, 100);
}

// The repeated-letter walk agrees with a scan of the words of a finite
// language, and holds on every infinite one: a word longer than the
// alphabet repeats a letter.
TEST(CompileFactsTest, RepeatedLetterMatchesWordScan) {
  int infinite = 0;
  for (const Language& lang : FactLanguages()) {
    if (!lang.IsFinite()) {
      ++infinite;
      EXPECT_TRUE(HasRepeatedLetterWord(lang)) << lang.description();
      continue;
    }
    Result<std::vector<std::string>> words = lang.Words();
    ASSERT_TRUE(words.ok()) << lang.description();
    bool repeats = false;
    for (const std::string& word : *words) {
      repeats |= std::set<char>(word.begin(), word.end()).size() < word.size();
    }
    EXPECT_EQ(HasRepeatedLetterWord(lang), repeats) << lang.description();
  }
  EXPECT_GT(infinite, 100);
}

}  // namespace
}  // namespace rpqres
