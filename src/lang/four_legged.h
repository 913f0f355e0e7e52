// rpqres — lang/four_legged: four-legged languages (Section 5.1).
//
// An infix-free language L is four-legged if there are a body letter x and
// non-empty legs α, β, γ, δ with αxβ ∈ L, γxδ ∈ L, αxδ ∉ L (Def 5.1).
// Theorem 5.3 shows RES_set(L) is NP-hard for such L; Lemma 5.5 shows legs
// can be chosen *stable* (no infix of αxδ in L), which is what the gadget
// constructions of Figures 5–6 consume.

#ifndef RPQRES_LANG_FOUR_LEGGED_H_
#define RPQRES_LANG_FOUR_LEGGED_H_

#include <optional>
#include <string>

#include "lang/language.h"

namespace rpqres {

/// A witness that L is four-legged: αxβ ∈ L, γxδ ∈ L, αxδ ∉ L, all legs
/// non-empty. If `stable`, additionally no infix of αxδ is in L (Def 5.4).
struct FourLeggedWitness {
  char body = '\0';
  std::string alpha;
  std::string beta;
  std::string gamma;
  std::string delta;
  bool stable = false;

  /// αxβ.
  std::string FirstWord() const { return alpha + body + beta; }
  /// γxδ.
  std::string SecondWord() const { return gamma + body + delta; }
  /// αxδ (the missing cross-product word).
  std::string CrossWord() const { return alpha + body + delta; }
};

/// Searches for a four-legged witness of the *infix-free* language `lang`.
/// Exhaustive (hence exact) for finite languages; for infinite languages
/// the search scans words up to `max_word_length` (sound but incomplete —
/// a nullopt answer is then only "not found").
std::optional<FourLeggedWitness> FindFourLeggedWitness(
    const Language& lang, int max_word_length = 8);

/// Upgrades any witness to one with stable legs (Lemma 5.5). The input
/// language must be infix-free.
FourLeggedWitness MakeStableLegs(const Language& lang,
                                 const FourLeggedWitness& witness);

/// True iff some infix of `word` (including `word` itself) is in L.
bool SomeInfixInLanguage(const Language& lang, const std::string& word);

}  // namespace rpqres

#endif  // RPQRES_LANG_FOUR_LEGGED_H_
