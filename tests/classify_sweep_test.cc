// Exhaustive robustness sweep: classify *every* language with at most two
// words of length <= 3 over {a, b, c} (780 languages) and check that the
// verdicts are internally consistent (then pin, over those languages and
// generated ones, the facts the compile-time tests rest on, each against
// the slower reference it replaced):
//   * classification never errors;
//   * PTIME verdicts are backed by an applicable flow solver whose answer
//     matches brute force on a random instance;
//   * NP-hard verdicts on finite languages come with a paper-sanctioned
//     reason (repeated letter, four-legged, or a known gadget language);
//   * UNCLASSIFIED verdicts are genuinely outside every implemented class.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "automata/ops.h"
#include "classify/classifier.h"
#include "graphdb/generators.h"
#include "lang/chain.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/language.h"
#include "lang/local.h"
#include "lang/neutral_letter.h"
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

// `regex` with the letter `z`, which it must not use, made neutral: every
// letter c becomes (z*c), and z* follows the whole.
std::string WithNeutralLetter(const std::string& regex, char z) {
  std::string out = "(";
  for (char c : regex) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += std::string("(") + z + "*" + c + ")";
    } else {
      out += c;
    }
  }
  return out + ")" + z + "*";
}

// The sweep languages and 1,000 generated regexes, each of those also with
// a neutral letter z, and IF(L) of every one: the inputs of the facts
// below, built once for all of them.
const std::vector<Language>& FactLanguages() {
  static const std::vector<Language> kLanguages = [] {
    std::vector<Language> languages;
    for (const std::vector<std::string>& words : SmallWordSets()) {
      languages.push_back(Language::FromWords(words));
    }
    for (const std::string& regex : GeneratedRegexes(25, 1000)) {
      languages.push_back(Language::MustFromRegexString(regex));
      if (regex.find('z') == std::string::npos) {
        languages.push_back(
            Language::MustFromRegexString(WithNeutralLetter(regex, 'z')));
      }
    }
    const size_t given = languages.size();
    for (size_t i = 0; i < given; ++i) {
      languages.push_back(InfixFreeSublanguage(languages[i]));
    }
    return languages;
  }();
  return kLanguages;
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

// Prp 3.12, the reference for the scan IsLocal runs on the minimal DFA: L
// is local iff its local overapproximation (Def 3.8) recognizes exactly L.
TEST(CompileFactsTest, IsLocalMatchesOverapproximation) {
  int local = 0;
  for (const Language& lang : FactLanguages()) {
    const bool reference = AreEquivalent(
        Minimize(LocalOverapproximationDfa(ComputeLocalProfile(lang))),
        lang.min_dfa());
    EXPECT_EQ(IsLocal(lang), reference) << lang.description();
    local += reference ? 1 : 0;
  }
  EXPECT_GT(local, 100);
}

// BuildRoEnfa checks locality up front and does not re-verify its output:
// the construction recognizes L whenever L is local (Claim 3.10).
TEST(CompileFactsTest, RoEnfaRecognizesEveryLocalLanguage) {
  int built = 0;
  for (const Language& lang : FactLanguages()) {
    Result<Enfa> ro = BuildRoEnfa(lang);
    ASSERT_EQ(ro.ok(), IsLocal(lang)) << lang.description();
    if (!ro.ok()) {
      EXPECT_EQ(ro.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ++built;
    EXPECT_TRUE(IsRoEnfa(*ro)) << lang.description();
    EXPECT_TRUE(AreEquivalent(MinimalDfa(*ro), lang.min_dfa()))
        << lang.description();
  }
  EXPECT_GT(built, 100);
}

// NFA for { αeβ : αβ ∈ L }: two copies of L's DFA bridged by
// (q,0) -e-> (q,1).
Enfa InsertOne(const Dfa& dfa, char e) {
  Enfa out;
  const int n = dfa.num_states();
  out.AddStates(2 * n);
  for (int s = 0; s < n; ++s) {
    for (size_t i = 0; i < dfa.alphabet().size(); ++i) {
      const int to = dfa.NextByIndex(s, static_cast<int>(i));
      if (to == kNoState) continue;
      out.AddTransition(s, dfa.alphabet()[i], to);
      out.AddTransition(n + s, dfa.alphabet()[i], n + to);
    }
    out.AddTransition(s, e, n + s);
    if (dfa.IsFinal(s)) out.AddFinal(n + s);
  }
  if (n > 0) out.AddInitial(dfa.initial());
  return out;
}

// NFA for { αβ : αeβ ∈ L }: two copies bridged by (q,0) -ε-> (δ(q,e),1).
Enfa DeleteOne(const Dfa& dfa, char e) {
  Enfa out;
  const int n = dfa.num_states();
  out.AddStates(2 * n);
  for (int s = 0; s < n; ++s) {
    for (size_t i = 0; i < dfa.alphabet().size(); ++i) {
      const int to = dfa.NextByIndex(s, static_cast<int>(i));
      if (to == kNoState) continue;
      out.AddTransition(s, dfa.alphabet()[i], to);
      out.AddTransition(n + s, dfa.alphabet()[i], n + to);
    }
    const int via_e = dfa.Next(s, e);
    if (via_e != kNoState) out.AddTransition(s, kEpsilonSymbol, n + via_e);
    if (dfa.IsFinal(s)) out.AddFinal(n + s);
  }
  if (n > 0) out.AddInitial(dfa.initial());
  return out;
}

// The definition, the reference for IsNeutralLetter's self-loop scan: e is
// neutral iff Ins_e(L) ⊆ L and Del_e(L) ⊆ L. Checked on every letter of
// the DFA's alphabet (the used ones and any unused one) and on one letter
// outside it.
TEST(CompileFactsTest, NeutralLetterMatchesInclusions) {
  int neutral = 0;
  int pairs = 0;
  for (const Language& lang : FactLanguages()) {
    const Dfa& dfa = lang.min_dfa();
    std::vector<char> letters = dfa.alphabet();
    for (char outside = 'a'; outside <= 'z'; ++outside) {
      if (dfa.SymbolIndex(outside) < 0) {
        letters.push_back(outside);
        break;
      }
    }
    for (char e : letters) {
      const bool reference = IsSubsetOf(MinimalDfa(InsertOne(dfa, e)), dfa) &&
                             IsSubsetOf(MinimalDfa(DeleteOne(dfa, e)), dfa);
      EXPECT_EQ(IsNeutralLetter(lang, e), reference)
          << lang.description() << ", letter " << e;
      neutral += reference ? 1 : 0;
      ++pairs;
    }
  }
  EXPECT_GT(neutral, 100);
  RecordProperty("neutral_pairs", neutral);
  RecordProperty("pairs", pairs);
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

// Language's used letters, one scan of the minimal DFA, are the alphabet
// of the trimmed automaton they were once read from.
TEST(CompileFactsTest, UsedLettersMatchTrimmedAutomaton) {
  for (const Language& lang : FactLanguages()) {
    EXPECT_EQ(lang.used_letters(),
              EnfaTrim(DfaToEnfa(lang.min_dfa())).Alphabet())
        << lang.description();
  }
}

// The classifier shows a finite IF(L) of a plan other than kExact by its
// first words and its word count, without listing it: both agree with the
// full word list.
TEST(CompileFactsTest, FirstWordsAndCountMatchTheWordList) {
  int finite = 0;
  for (const Language& lang : FactLanguages()) {
    if (!lang.IsFinite()) continue;
    ++finite;
    const Dfa& dfa = lang.min_dfa();
    Result<std::vector<std::string>> words = lang.Words();
    ASSERT_TRUE(words.ok()) << lang.description();
    for (size_t shown : {size_t{1}, size_t{3}, size_t{32}}) {
      const size_t n = std::min(shown, words->size());
      EXPECT_EQ(FirstWordsUpToLength(dfa, dfa.num_states(), shown),
                std::vector<std::string>(words->begin(), words->begin() + n))
          << lang.description();
    }
    uint64_t count = 0;
    for (uint64_t n : CountWordsByLength(dfa, dfa.num_states())) count += n;
    EXPECT_EQ(count, words->size()) << lang.description();
  }
  EXPECT_GT(finite, 100);
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
