// rpqres tests — Lemma 3.17's RO-εNFA, the reference BuildRoEnfa's
// automaton (read off the minimal DFA) is held to: one in-state and one
// out-state per letter of L, the letter's only transition between them,
// and ε-edges along the local profile of Def 3.8. It recognizes L whenever
// L is local (Claims 3.9-3.10).

#ifndef RPQRES_TESTS_LEMMA317_RO_ENFA_H_
#define RPQRES_TESTS_LEMMA317_RO_ENFA_H_

#include <algorithm>
#include <vector>

#include "automata/enfa.h"
#include "lang/language.h"
#include "lang/local.h"

namespace rpqres {

/// Lemma 3.17's RO-εNFA for a local L: 2|Σ| + 1 states, state 0 = q0,
/// 1 + 2i = in_a and 2 + 2i = out_a for a = letters[i].
inline Enfa Lemma317RoEnfa(const Language& lang) {
  const LocalProfile profile = ComputeLocalProfile(lang);
  const std::vector<char>& letters = profile.letters;
  Enfa ro;
  ro.AddStates(1 + 2 * static_cast<int>(letters.size()));
  ro.AddInitial(0);
  if (profile.contains_epsilon) ro.AddFinal(0);
  auto index_of = [&letters](char c) {
    return static_cast<int>(
        std::lower_bound(letters.begin(), letters.end(), c) - letters.begin());
  };
  auto in_state = [&index_of](char c) { return 1 + 2 * index_of(c); };
  auto out_state = [&index_of](char c) { return 2 + 2 * index_of(c); };
  for (char c : letters) ro.AddTransition(in_state(c), c, out_state(c));
  for (char c : profile.start_letters) {
    ro.AddTransition(0, kEpsilonSymbol, in_state(c));
  }
  for (auto [c1, c2] : profile.pairs) {
    ro.AddTransition(out_state(c1), kEpsilonSymbol, in_state(c2));
  }
  for (char c : profile.end_letters) ro.AddFinal(out_state(c));
  return ro;
}

}  // namespace rpqres

#endif  // RPQRES_TESTS_LEMMA317_RO_ENFA_H_
