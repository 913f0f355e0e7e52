#include "lang/ro_enfa.h"

#include <algorithm>
#include <span>

#include "automata/ops.h"
#include "util/check.h"

namespace rpqres {

bool IsRoEnfa(const Enfa& a) {
  std::vector<char> seen;
  for (const EnfaTransition& t : a.transitions()) {
    if (t.symbol == kEpsilonSymbol) continue;
    if (std::find(seen.begin(), seen.end(), t.symbol) != seen.end()) {
      return false;
    }
    seen.push_back(t.symbol);
  }
  return true;
}

Result<Enfa> BuildRoEnfa(const Language& lang) {
  const Dfa& dfa = lang.min_dfa();
  const std::vector<bool> useful = UsefulStates(dfa);
  const int n = dfa.num_states();
  const std::vector<char>& alphabet = dfa.alphabet();
  const int sigma = static_cast<int>(alphabet.size());

  // Per letter i: the shared target of its useful transitions, and their
  // sources, sources[begin[i], begin[i + 1]) in state order.
  std::vector<int> target(sigma, kNoState), begin(sigma + 1, 0), sources;
  for (int i = 0; i < sigma; ++i) {
    begin[i] = static_cast<int>(sources.size());
    for (int q = 0; q < n; ++q) {
      if (!useful[q]) continue;
      const int to = dfa.NextByIndex(q, i);
      if (to == kNoState || !useful[to]) continue;
      if (target[i] == kNoState) {
        target[i] = to;
      } else if (target[i] != to) {
        return Status::FailedPrecondition(
            "BuildRoEnfa: language " + lang.description() +
            " is not local (RO-εNFAs recognize exactly the local languages, "
            "Lemma 3.17)");
      }
      sources.push_back(q);
    }
  }
  begin[sigma] = static_cast<int>(sources.size());

  // The useful DFA states, the initial one as state 0. Without a useful
  // initial state L = ∅, which q0 alone recognizes.
  Enfa ro;
  ro.AddInitial(ro.AddState());
  std::vector<int> state_of(n, -1);
  if (n > 0 && useful[dfa.initial()]) state_of[dfa.initial()] = 0;
  for (int q = 0; q < n; ++q) {
    if (!useful[q]) continue;
    if (state_of[q] < 0) state_of[q] = ro.AddState();
    if (dfa.IsFinal(q)) ro.AddFinal(state_of[q]);
  }
  // One transition per letter: from its only source, or from the hub its
  // sources enter by ε, shared by every letter with the same sources.
  std::vector<int> hub(sigma, -1);
  auto sources_of = [&](int i) {
    return std::span<const int>(sources.data() + begin[i],
                                sources.data() + begin[i + 1]);
  };
  for (int i = 0; i < sigma; ++i) {
    const std::span<const int> from = sources_of(i);
    if (from.empty()) continue;  // L reads no alphabet[i]
    if (from.size() > 1) {
      for (int j = 0; j < i && hub[i] < 0; ++j) {
        if (hub[j] >= 0 && std::ranges::equal(from, sources_of(j))) {
          hub[i] = hub[j];
        }
      }
      if (hub[i] < 0) {
        hub[i] = ro.AddState();
        for (int q : from) {
          ro.AddTransition(state_of[q], kEpsilonSymbol, hub[i]);
        }
      }
    }
    ro.AddTransition(from.size() > 1 ? hub[i] : state_of[from[0]],
                     alphabet[i], state_of[target[i]]);
  }
  RPQRES_DCHECK(IsRoEnfa(ro));
  return ro;
}

}  // namespace rpqres
