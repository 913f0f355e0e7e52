#include "lang/local.h"

#include <algorithm>

#include "automata/ops.h"
#include "util/check.h"

namespace rpqres {

LocalProfile ComputeLocalProfile(const Language& lang) {
  const Dfa& a = lang.min_dfa();
  LocalProfile profile;
  profile.letters = lang.used_letters();
  profile.contains_epsilon = lang.ContainsEpsilon();

  const std::vector<bool> useful = UsefulStates(a);
  if (a.num_states() == 0) return profile;

  // Σ_start: letters a with δ(q0, a) useful.
  for (char c : profile.letters) {
    int to = a.Next(a.initial(), c);
    if (to != kNoState && useful[to]) {
      profile.start_letters.push_back(c);
    }
  }
  // Σ_end: letters a with some useful p and δ(p, a) final.
  for (char c : profile.letters) {
    for (int p = 0; p < a.num_states(); ++p) {
      if (!useful[p]) continue;
      int to = a.Next(p, c);
      if (to != kNoState && a.IsFinal(to)) {
        profile.end_letters.push_back(c);
        break;
      }
    }
  }
  // Π: pairs (a, b) realized as consecutive letters of a word of L:
  // useful p, q = δ(p,a), r = δ(q,b) useful.
  for (char c1 : profile.letters) {
    for (char c2 : profile.letters) {
      bool found = false;
      for (int p = 0; p < a.num_states() && !found; ++p) {
        if (!useful[p]) continue;
        int q = a.Next(p, c1);
        if (q == kNoState) continue;
        int r = a.Next(q, c2);
        if (r != kNoState && useful[r]) found = true;
      }
      if (found) profile.pairs.push_back({c1, c2});
    }
  }
  return profile;
}

Dfa LocalOverapproximationDfa(const LocalProfile& profile) {
  // State 0 = q_0; state 1+i = q_{letters[i]}.
  int n = 1 + static_cast<int>(profile.letters.size());
  Dfa a(profile.letters, n);
  a.set_initial(0);
  auto state_of = [&profile](char c) {
    auto it = std::lower_bound(profile.letters.begin(),
                               profile.letters.end(), c);
    RPQRES_DCHECK(it != profile.letters.end() && *it == c);
    return 1 + static_cast<int>(it - profile.letters.begin());
  };
  if (profile.contains_epsilon) a.SetFinal(0);
  for (char c : profile.end_letters) a.SetFinal(state_of(c));
  for (char c : profile.start_letters) a.SetTransition(0, c, state_of(c));
  for (auto [c1, c2] : profile.pairs) {
    a.SetTransition(state_of(c1), c2, state_of(c2));
  }
  return a;
}

bool IsLocal(const Language& lang) { return IsLocalDfa(lang.min_dfa()); }

bool IsLocalDfa(const Dfa& dfa) {
  // For each letter, all transitions between useful states must share
  // their target; transitions into the sink of a complete DFA do not
  // count.
  const std::vector<bool> useful = UsefulStates(dfa);
  for (size_t i = 0; i < dfa.alphabet().size(); ++i) {
    int target = kNoState;
    for (int s = 0; s < dfa.num_states(); ++s) {
      if (!useful[s]) continue;
      int to = dfa.NextByIndex(s, static_cast<int>(i));
      if (to == kNoState || !useful[to]) continue;
      if (target == kNoState) {
        target = to;
      } else if (target != to) {
        return false;
      }
    }
  }
  return true;
}

bool IsLetterCartesian(const std::vector<std::string>& words) {
  auto contains = [&words](const std::string& w) {
    return std::find(words.begin(), words.end(), w) != words.end();
  };
  for (const std::string& w1 : words) {
    for (size_t i = 0; i < w1.size(); ++i) {
      for (const std::string& w2 : words) {
        for (size_t j = 0; j < w2.size(); ++j) {
          if (w1[i] != w2[j]) continue;
          // α = w1[0..i), x = w1[i], δ = w2[j+1..): need αxδ ∈ L.
          std::string cross = w1.substr(0, i + 1) + w2.substr(j + 1);
          if (!contains(cross)) return false;
        }
      }
    }
  }
  return true;
}

}  // namespace rpqres
