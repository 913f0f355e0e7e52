#include "lang/infix_free.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

#include "automata/ops.h"
#include "util/strings.h"

namespace rpqres {

namespace {

// The subset walk over L's complete DFA `a`. A walk state (p, R) stands
// for the word read so far: p is a's state after the whole word, R the
// live states of the runs that started after its first letter. A letter
// leads to the dead state when the word is in L (it would become a strict
// prefix), when it leaves L's live states, or when a run of R accepts (a
// strict infix that does not start at position 0 ends there). When ε ∈ L
// the initial pair already accepts, so the walk yields {ε}.
Dfa InfixFreeWalk(const Dfa& a) {
  const std::vector<char>& alphabet = a.alphabet();
  const int sigma = static_cast<int>(alphabet.size());
  // Every state the walk meets is reachable from q0, so for it "useful"
  // means that F is reachable from it.
  const std::vector<bool> live = UsefulStates(a);
  const int q0 = a.initial();

  // A walk state (p, R) is the key {p, R ascending}.
  constexpr int kDead = 0;
  std::vector<std::vector<int>> keys = {{}, {q0}};  // kDead, then (q0, ∅)
  std::map<std::vector<int>, int> ids;
  ids.emplace(keys[1], 1);
  std::vector<int> next;  // next[s * sigma + i], filled in order of s
  std::vector<int> successor;
  for (size_t s = 0; s < keys.size(); ++s) {
    if (keys[s].empty() || a.IsFinal(keys[s][0])) {  // kDead or p ∈ F
      next.insert(next.end(), sigma, kDead);
      continue;
    }
    const int p = keys[s][0];
    for (int i = 0; i < sigma; ++i) {
      const int p_next = a.NextByIndex(p, i);
      if (p_next == kNoState || !live[p_next]) {
        next.push_back(kDead);
        continue;
      }
      successor.assign({p_next, q0});
      bool infix_accepted = false;
      for (size_t k = 1; k < keys[s].size(); ++k) {
        const int r = a.NextByIndex(keys[s][k], i);
        if (r == kNoState || !live[r]) continue;
        if (a.IsFinal(r)) {
          infix_accepted = true;
          break;
        }
        successor.push_back(r);
      }
      if (infix_accepted) {
        next.push_back(kDead);
        continue;
      }
      std::sort(successor.begin() + 1, successor.end());
      successor.erase(std::unique(successor.begin() + 1, successor.end()),
                      successor.end());
      auto [it, inserted] =
          ids.emplace(successor, static_cast<int>(keys.size()));
      if (inserted) keys.push_back(successor);
      next.push_back(it->second);
    }
  }

  Dfa out(alphabet, static_cast<int>(keys.size()));
  out.set_initial(1);
  for (size_t s = 1; s < keys.size(); ++s) {
    if (a.IsFinal(keys[s][0])) out.SetFinal(static_cast<int>(s));
  }
  for (size_t s = 0; s < keys.size(); ++s) {
    for (int i = 0; i < sigma; ++i) {
      out.SetTransition(static_cast<int>(s), alphabet[i], next[s * sigma + i]);
    }
  }
  return out;
}

}  // namespace

Language InfixFreeSublanguage(const Language& lang) {
  Language out = Language::FromDfa(InfixFreeWalk(lang.min_dfa()));
  out.set_description("IF(" + lang.description() + ")");
  return out;
}

bool IsInfixFree(const Language& lang) {
  return lang.EquivalentTo(InfixFreeSublanguage(lang));
}

std::vector<std::string> InfixFreeWords(
    const std::vector<std::string>& words) {
  std::vector<std::string> out;
  for (const std::string& w : words) {
    bool has_strict_infix_in_language = false;
    for (const std::string& other : words) {
      if (ContainsStrictInfix(w, other)) {
        has_strict_infix_in_language = true;
        break;
      }
    }
    if (!has_strict_infix_in_language) out.push_back(w);
  }
  return out;
}

}  // namespace rpqres
