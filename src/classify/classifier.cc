#include "classify/classifier.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "automata/ops.h"
#include "gadgets/chain_cycle.h"
#include "lang/four_legged.h"
#include "lang/infix_free.h"
#include "lang/neutral_letter.h"
#include "lang/repeated_letter.h"
#include "lang/star_free.h"
#include "resilience/resilience.h"
#include "util/strings.h"

namespace rpqres {

const char* ComplexityClassName(ComplexityClass c) {
  switch (c) {
    case ComplexityClass::kPtime:
      return "PTIME";
    case ComplexityClass::kNpHard:
      return "NP-hard";
    case ComplexityClass::kUnclassified:
      return "UNCLASSIFIED";
    case ComplexityClass::kTrivial:
      return "trivial";
  }
  return "?";
}

namespace {

// Classification::if_language spells out at most this many words of a
// finite IF(L), then its word count: every cached plan keeps the string.
constexpr size_t kShownWords = 32;

// The display of a finite language: its first kShownWords words in
// (length, lex) order, then its word count when there are more.
std::string ShowFiniteLanguage(const std::vector<std::string>& first_words,
                               uint64_t count) {
  std::vector<std::string> shown;
  for (const auto& word : first_words) shown.push_back(DisplayWord(word));
  std::string out = shown.empty() ? "∅" : Join(shown, "|");
  if (count > kShownWords) {
    out += " … (" + std::string(count >= kWordCountCap ? "at least " : "") +
           std::to_string(count) + " words)";
  }
  return out;
}

// The finite languages proven NP-hard by dedicated gadgets (Prp 7.4,
// Prp 7.11), to be matched up to letter renaming.
const std::vector<std::vector<std::string>>& KnownHardWordSets() {
  static const std::vector<std::vector<std::string>> kSets = {
      {"ab", "bc", "ca"},        // Prp 7.4
      {"abcd", "be", "ef"},      // Prp 7.11
      {"abcd", "bef"},           // Prp 7.11
  };
  return kSets;
}

// Does some letter bijection map `words` onto `pattern` (as word sets)?
// Tries every pairing of the words with the pattern's: small sets only.
bool MatchesUpToRenaming(const std::vector<std::string>& words,
                         const std::vector<std::string>& pattern) {
  if (words.size() != pattern.size()) return false;
  std::vector<size_t> perm(pattern.size());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    std::map<char, char> binding;  // word letter -> pattern letter
    std::map<char, char> reverse;  // pattern letter -> word letter
    bool ok = true;
    for (size_t i = 0; i < words.size() && ok; ++i) {
      const std::string& w = words[i];
      const std::string& p = pattern[perm[i]];
      ok = w.size() == p.size();
      for (size_t j = 0; j < w.size() && ok; ++j) {
        ok = binding.emplace(w[j], p[j]).first->second == p[j] &&
             reverse.emplace(p[j], w[j]).first->second == w[j];
      }
    }
    if (ok) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

}  // namespace

Result<Classification> ClassifyResilience(const Language& lang,
                                          int max_word_length) {
  return ClassifyResilienceWithIF(lang, InfixFreeSublanguage(lang),
                                  max_word_length);
}

Result<Classification> ClassifyResilienceWithIF(const Language& lang,
                                                const Language& ifl,
                                                int max_word_length) {
  RPQRES_ASSIGN_OR_RETURN(ResiliencePlan plan, PlanResilienceWithIF(ifl));
  return ClassifyResilienceWithPlan(lang, plan, max_word_length);
}

Result<Classification> ClassifyResilienceWithPlan(const Language& lang,
                                                  const ResiliencePlan& plan,
                                                  int max_word_length) {
  const Language& ifl = plan.if_language;
  Classification out;
  out.finite = ifl.IsFinite();
  // The first words of a finite IF(L): shown in `if_language`, and matched
  // against the gadget patterns below, none of which has more words.
  std::vector<std::string> first_words;
  if (!out.finite) {
    out.if_language = "IF(" + lang.description() + ") [infinite]";
  } else {
    // A word of a finite language visits no state twice.
    const Dfa& dfa = ifl.min_dfa();
    uint64_t count = 0;
    for (uint64_t n : CountWordsByLength(dfa, dfa.num_states())) {
      count = std::min(kWordCountCap, count + n);
    }
    first_words = FirstWordsUpToLength(dfa, dfa.num_states(), kShownWords);
    out.if_language = ShowFiniteLanguage(first_words, count);
  }

  // Trivial cases.
  if (plan.trivial_infinite) {
    out.complexity = ComplexityClass::kTrivial;
    out.rule = "ε ∈ L";
    out.detail = "Q_L holds on every database; resilience is +∞";
    return out;
  }
  if (plan.trivial_empty) {
    out.complexity = ComplexityClass::kTrivial;
    out.rule = "L = ∅";
    out.detail = "Q_L never holds; resilience is 0";
    return out;
  }

  // --- PTIME side: the solver the plan picked is the witness ---------------
  switch (plan.method) {
    case ResilienceMethod::kLocalFlow:
      out.complexity = ComplexityClass::kPtime;
      out.rule = "local language (Thm 3.13)";
      out.detail = "RO-εNFA product with D, then MinCut";
      return out;
    case ResilienceMethod::kBclFlow:
      out.complexity = ComplexityClass::kPtime;
      out.rule = "bipartite chain language (Prp 7.6)";
      out.detail = "per-fact flow network with forward/reversed word wiring";
      return out;
    case ResilienceMethod::kOneDanglingFlow:
      out.complexity = ComplexityClass::kPtime;
      out.rule = "one-dangling language (Prp 7.9)";
      if (plan.one_dangling_tables.has_value()) {
        out.detail = plan.one_dangling_tables->decomposition;
      }
      return out;
    case ResilienceMethod::kExact:
      break;
    case ResilienceMethod::kAuto:
    case ResilienceMethod::kBruteForce:
      return Status::InvalidArgument(
          "ClassifyResilienceWithPlan: not a kAuto plan");
  }

  // --- NP-hard side ---------------------------------------------------------
  if (out.finite) {
    if (std::optional<std::string> word = ShortestRepeatedLetterWord(ifl)) {
      out.complexity = ComplexityClass::kNpHard;
      out.rule = "finite with repeated-letter word (Thm 6.1)";
      out.detail = "shortest repeated-letter word " + *word;
      return out;
    }
  }
  std::optional<FourLeggedWitness> witness =
      FindFourLeggedWitness(ifl, max_word_length);
  if (witness) {
    out.complexity = ComplexityClass::kNpHard;
    out.rule = "four-legged language (Thm 5.3)";
    out.detail = std::string(1, witness->body) + "-body, " +
                 witness->FirstWord() + " ∈ L, " + witness->SecondWord() +
                 " ∈ L, " + witness->CrossWord() + " ∉ L";
    return out;
  }
  // A monoid walk that runs out skips only the non-star-free rule.
  std::string star_free_exhausted;
  if (!out.finite) {
    Result<bool> star_free = IsStarFree(ifl);
    if (!star_free.ok()) {
      if (star_free.status().code() != StatusCode::kOutOfRange) {
        return star_free.status();
      }
      star_free_exhausted = star_free.status().message();
    } else if (!*star_free) {
      out.complexity = ComplexityClass::kNpHard;
      out.rule = "non-star-free (Lem 5.6 + Thm 5.3)";
      out.detail = "not counter-free: syntactic monoid is not aperiodic";
      return out;
    }
    // Neutral-letter dichotomy (Prp 5.7): the neutral letter is a property
    // of L itself (IF(L) typically loses it); IF(L) is not local here, so
    // a neutral letter implies hardness.
    std::vector<char> neutral = NeutralLetters(lang);
    if (!neutral.empty()) {
      out.complexity = ComplexityClass::kNpHard;
      out.rule = "neutral letter + non-local (Prp 5.7)";
      out.detail = std::string("neutral letter '") + neutral.front() + "'";
      return out;
    }
  }
  if (out.finite) {
    for (const std::vector<std::string>& pattern : KnownHardWordSets()) {
      if (MatchesUpToRenaming(first_words, pattern)) {
        out.complexity = ComplexityClass::kNpHard;
        out.rule = pattern.size() == 3 && pattern[0] == "ab"
                       ? "non-bipartite chain ab|bc|ca (Prp 7.4)"
                       : "explicit gadget (Prp 7.11)";
        out.detail = "matches " + Join(pattern, "|") + " up to renaming";
        return out;
      }
    }
    // Non-bipartite chain languages beyond ab|bc|ca: the paper conjectures
    // hardness; a mechanically *verified* gadget is a proof via Prp 4.11,
    // so the NP-hard region extends wherever the Fig 13 generalization
    // verifies (gadgets/chain_cycle.h).
    Result<PreGadget> chain_gadget = BuildNonBipartiteChainGadget(ifl);
    if (chain_gadget.ok()) {
      out.complexity = ComplexityClass::kNpHard;
      out.rule = "non-bipartite chain, verified gadget (Prp 4.11)";
      out.detail = "odd-cycle gadget " + chain_gadget->name +
                   " verified; extends the paper's Prp 7.4 conjecture";
      return out;
    }
  }

  out.complexity = ComplexityClass::kUnclassified;
  out.rule = "no paper result applies";
  // The four-legged search bounds its words only on an infinite IF(L),
  // and the repeated-letter rule reads only a finite one.
  const std::string four_legged =
      out.finite ? "no repeated letter, not four-legged"
                 : "infinite, no four-legged witness of at most " +
                       std::to_string(max_word_length) + " letters";
  const std::string star_free =
      star_free_exhausted.empty()
          ? "star-free"
          : "star-freeness undecided (" + star_free_exhausted + ")";
  out.detail = "not local/BCL/one-dangling; " + four_legged + ", " +
               star_free + ", no neutral letter";
  return out;
}

std::string ClassificationReport(const Language& lang,
                                 const Classification& classification) {
  std::string out = lang.description() + ": ";
  out += ComplexityClassName(classification.complexity);
  out += " — " + classification.rule;
  if (!classification.detail.empty()) {
    out += " (" + classification.detail + ")";
  }
  return out;
}

}  // namespace rpqres
