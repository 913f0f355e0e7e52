// rpqres — classify/classifier: the Figure 1 pipeline.
//
// Given a regular language, classifies the complexity of its resilience
// problem using the paper's results, always on the infix-free sublanguage:
//   PTIME:   local (Thm 3.13), bipartite chain (Prp 7.6),
//            one-dangling / mirrored one-dangling (Prp 7.9 + Prp 6.3)
//   NP-hard: four-legged (Thm 5.3), non-star-free (Lem 5.6),
//            finite with a repeated-letter word (Thm 6.1),
//            specific proven-hard languages up to letter renaming
//            (Prp 7.4: ab|bc|ca; Prp 7.11: abcd|be|ef, abcd|bef)
//   UNCLASSIFIED otherwise (the open middle column of Fig 1).
//
// The PTIME verdicts are read off the kAuto plan (resilience/resilience.h):
// the planner already ran each PTIME test to pick its solver, and the
// tables it built are the witnesses. The NP-hard rules run only when the
// plan fell back to the exact solver.

#ifndef RPQRES_CLASSIFY_CLASSIFIER_H_
#define RPQRES_CLASSIFY_CLASSIFIER_H_

#include <string>

#include "lang/language.h"
#include "util/status.h"

namespace rpqres {

struct ResiliencePlan;  // resilience/resilience.h

/// The three columns of Figure 1.
enum class ComplexityClass {
  kPtime,
  kNpHard,
  kUnclassified,
  kTrivial,  ///< IF(L) empty or {ε}: resilience constant (0 / +∞)
};

const char* ComplexityClassName(ComplexityClass c);

/// A classification verdict with the paper result that justifies it.
struct Classification {
  ComplexityClass complexity = ComplexityClass::kUnclassified;
  std::string rule;         ///< e.g. "local (Thm 3.13)"
  std::string detail;       ///< witness words, legs, decomposition, ...
  /// Display form of IF(L): its words when finite (the first 32, then
  /// "… (N words)"), "IF(<L>) [infinite]" otherwise.
  std::string if_language;
  bool finite = false;      ///< IF(L) finite?
};

/// Classifies the resilience complexity of Q_L per the paper's results.
/// `max_word_length` bounds the four-legged witness search for infinite
/// languages (the search is exact for finite ones).
Result<Classification> ClassifyResilience(const Language& lang,
                                          int max_word_length = 8);

/// Like ClassifyResilience, but takes the precomputed infix-free
/// sublanguage IF(L) instead of rederiving it: PlanResilienceWithIF(ifl)
/// followed by ClassifyResilienceWithPlan. `lang` is still needed: the
/// neutral-letter test (Prp 5.7) is a property of L itself.
Result<Classification> ClassifyResilienceWithIF(const Language& lang,
                                                const Language& ifl,
                                                int max_word_length = 8);

/// The verdict for the kAuto plan of IF(L) — the compiled query's entry
/// point (src/engine/), which plans first. The trivial verdicts come from
/// `plan.trivial_infinite` / `plan.trivial_empty`, and the PTIME verdict
/// from `plan.method`: kLocalFlow gives Thm 3.13, kBclFlow Prp 7.6 and
/// kOneDanglingFlow Prp 7.9 (its detail is the decomposition the tables
/// hold). Only a kExact plan runs the NP-hard rules: repeated letter,
/// four-legged (bounded by `max_word_length` on infinite languages),
/// star-free, neutral letter, the known gadgets and the chain gadget.
/// `plan` must come from PlanResilienceWithIF (InvalidArgument for a
/// kAuto or kBruteForce method).
Result<Classification> ClassifyResilienceWithPlan(const Language& lang,
                                                  const ResiliencePlan& plan,
                                                  int max_word_length = 8);

/// One-line report: "<regex>: <class> — <rule> (<detail>)".
std::string ClassificationReport(const Language& lang,
                                 const Classification& classification);

}  // namespace rpqres

#endif  // RPQRES_CLASSIFY_CLASSIFIER_H_
