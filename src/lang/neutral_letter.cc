#include "lang/neutral_letter.h"

namespace rpqres {

bool IsNeutralLetter(const Language& lang, char e) {
  // e is neutral iff the residuals of α and αe agree for every α. Distinct
  // states of the minimal DFA have distinct residuals, and all of them are
  // reachable, so that is a self-loop on e at every state.
  const Dfa& dfa = lang.min_dfa();
  const int e_index = dfa.SymbolIndex(e);
  // No word of L has a letter outside the alphabet, so αeβ ∉ L for all α,
  // β, and e is neutral iff no αβ is in L either.
  if (e_index < 0) return lang.IsEmpty();
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.NextByIndex(q, e_index) != q) return false;
  }
  return true;
}

std::vector<char> NeutralLetters(const Language& lang) {
  std::vector<char> out;
  for (char e : lang.used_letters()) {
    if (IsNeutralLetter(lang, e)) out.push_back(e);
  }
  return out;
}

}  // namespace rpqres
