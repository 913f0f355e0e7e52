// rpqres — lang/infix_free: the infix-free sublanguage IF(L) (Section 2).
//
// IF(L) = { α ∈ L | no strict infix of α is in L }. The paper's key
// observation is that Q_L = Q_IF(L), so all classification happens on IF(L).

#ifndef RPQRES_LANG_INFIX_FREE_H_
#define RPQRES_LANG_INFIX_FREE_H_

#include "lang/language.h"

namespace rpqres {

/// Computes IF(L) by one subset walk over L's minimal DFA A = (Q, δ, q0, F).
/// The walk visits pairs (p, R), starting from (q0, ∅): p is A's state
/// after the word read so far, R the states from which F is reachable
/// among the runs started after its first letter (q0 joins R at every
/// step). A letter leads to one dead state when p ∈ F (the word would
/// become a strict prefix), when δ(p, a) cannot reach F, or when
/// δ(r, a) ∈ F for some r ∈ R (a strict infix ends there); a pair accepts
/// iff p ∈ F. So ε ∈ L gives IF(L) = {ε}: ε is a strict infix of every
/// other word. The result is minimized over A's alphabet. The worst case
/// is still exponential in |Q|, as for any subset construction ([Barceló
/// et al., Prp 6]); the early stop only drops subsets that can never
/// accept.
Language InfixFreeSublanguage(const Language& lang);

/// True iff L = IF(L) (L is an infix code, Section 2).
bool IsInfixFree(const Language& lang);

/// Direct word-level computation for explicit finite languages: keeps the
/// words with no strict infix among the others (used to cross-check the
/// automaton construction).
std::vector<std::string> InfixFreeWords(
    const std::vector<std::string>& words);

}  // namespace rpqres

#endif  // RPQRES_LANG_INFIX_FREE_H_
