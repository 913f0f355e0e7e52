// rpqres — lang/neutral_letter: neutral letters (Section 5.2).
//
// e is neutral for L if for all α, β: αβ ∈ L ⟺ αeβ ∈ L. Under this
// assumption the paper proves a full dichotomy (Prp 5.7): IF(L) local ⇒
// PTIME, otherwise NP-hard.

#ifndef RPQRES_LANG_NEUTRAL_LETTER_H_
#define RPQRES_LANG_NEUTRAL_LETTER_H_

#include <vector>

#include "lang/language.h"

namespace rpqres {

/// True iff `e` is a neutral letter of L: L is closed under inserting `e`
/// at any position and under deleting any occurrence of `e`. Decided in
/// one scan of the minimal DFA, O(|Q|): its distinct states have distinct
/// residuals, so e is neutral iff δ(q, e) = q for every state q. A letter
/// outside the DFA's alphabet is neutral iff L = ∅. The Ins_e(L) ⊆ L and
/// Del_e(L) ⊆ L inclusions are the reference the tests hold it to.
bool IsNeutralLetter(const Language& lang, char e);

/// All neutral letters among the used letters of L.
std::vector<char> NeutralLetters(const Language& lang);

}  // namespace rpqres

#endif  // RPQRES_LANG_NEUTRAL_LETTER_H_
