#include "lang/four_legged.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "util/check.h"

namespace rpqres {
namespace {

constexpr int kUnreached = std::numeric_limits<int>::max();
constexpr size_t kNoCell = std::numeric_limits<size_t>::max();

// 1 + d, keeping kUnreached.
int Plus1(int d) { return d == kUnreached ? kUnreached : d + 1; }

}  // namespace

bool SomeInfixInLanguage(const Language& lang, const std::string& word) {
  for (size_t start = 0; start <= word.size(); ++start) {
    for (size_t len = 0; start + len <= word.size(); ++len) {
      if (lang.Contains(word.substr(start, len))) return true;
    }
  }
  return false;
}

std::optional<FourLeggedWitness> FindFourLeggedWitness(const Language& lang,
                                                       int max_word_length) {
  // With p = δ(q0, αx) and r = δ(q0, γx), the legs are a witness iff
  // β ∈ L_p∖{ε} and δ ∈ (L_r∖L_p)∖{ε}. α and β depend on p alone, γ on r
  // and δ on (p, r), so each leg can be the shortest of its kind, and
  // three distance tables decide the bound on |αxβ| and |γxδ| exactly:
  //   into[s]      shortest non-empty word from q0 to s (forward BFS);
  //   to_final[s]  shortest word from s into F (backward BFS);
  //   miss[p, r]   shortest word w with r·w ∈ F, p·w ∉ F (backward BFS
  //                over state pairs).
  const Dfa& dfa = lang.min_dfa();
  const int n = dfa.num_states();
  const int k = static_cast<int>(dfa.alphabet().size());
  if (n == 0) return std::nullopt;
  RPQRES_DCHECK(dfa.IsComplete());
  const bool bounded = !lang.IsFinite();
  auto next = [&dfa](int s, int a) { return dfa.NextByIndex(s, a); };

  // Reverse transitions: preds(a, t) are the s with δ(s, a) = t.
  std::vector<int> pred_start(static_cast<size_t>(k) * n + 1, 0);
  std::vector<int> pred(static_cast<size_t>(k) * n);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < k; ++a) ++pred_start[a * n + next(s, a) + 1];
  }
  std::partial_sum(pred_start.begin(), pred_start.end(), pred_start.begin());
  std::vector<int> fill(pred_start.begin(), pred_start.end() - 1);
  for (int s = 0; s < n; ++s) {
    for (int a = 0; a < k; ++a) pred[fill[a * n + next(s, a)]++] = s;
  }
  auto preds = [&](int a, int t) {
    return std::span<const int>(pred.data() + pred_start[a * n + t],
                                pred.data() + pred_start[a * n + t + 1]);
  };

  // Forward BFS, keeping the transition each state was first reached by.
  std::vector<int> dist(n, kUnreached), via_state(n, -1), via_letter(n, -1);
  std::vector<int> order{dfa.initial()};
  dist[dfa.initial()] = 0;
  for (size_t head = 0; head < order.size(); ++head) {
    const int s = order[head];
    for (int a = 0; a < k; ++a) {
      const int t = next(s, a);
      if (dist[t] != kUnreached) continue;
      dist[t] = dist[s] + 1;
      via_state[t] = s;
      via_letter[t] = a;
      order.push_back(t);
    }
  }
  std::vector<int> into(n, kUnreached), into_state(n, -1), into_letter(n, -1);
  for (int s : order) {
    for (int a = 0; a < k; ++a) {
      const int t = next(s, a);
      if (dist[s] + 1 < into[t]) {
        into[t] = dist[s] + 1;
        into_state[t] = s;
        into_letter[t] = a;
      }
    }
  }

  std::vector<int> to_final(n, kUnreached);
  std::vector<int> queue;
  for (int s = 0; s < n; ++s) {
    if (!dfa.IsFinal(s)) continue;
    to_final[s] = 0;
    queue.push_back(s);
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const int t = queue[head];
    for (int a = 0; a < k; ++a) {
      for (int s : preds(a, t)) {
        if (to_final[s] != kUnreached) continue;
        to_final[s] = to_final[t] + 1;
        queue.push_back(s);
      }
    }
  }

  // Every state of αxβ and of γxδ lies on an accepted word of at most
  // max_word_length letters (on some accepted word when L is finite).
  // Only those states, R, can be p or r, and only they need a column in
  // miss: the pair search costs O(|Σ|·|Q|·|R|) time and O(|Q|·|R|)
  // memory.
  std::vector<int> column(n, -1), short_states;
  for (int s = 0; s < n; ++s) {
    if (dist[s] == kUnreached || to_final[s] == kUnreached) continue;
    if (bounded && dist[s] + to_final[s] > max_word_length) continue;
    column[s] = static_cast<int>(short_states.size());
    short_states.push_back(s);
  }
  const size_t m = short_states.size();
  auto cell = [&](int p, int r) {
    return column[r] < 0 ? kNoCell : static_cast<size_t>(p) * m + column[r];
  };

  std::vector<int> miss(static_cast<size_t>(n) * m, kUnreached);
  std::vector<size_t> pair_queue;
  for (int p = 0; p < n; ++p) {
    if (dfa.IsFinal(p)) continue;
    for (size_t c = 0; c < m; ++c) {
      if (!dfa.IsFinal(short_states[c])) continue;
      miss[p * m + c] = 0;
      pair_queue.push_back(p * m + c);
    }
  }
  for (size_t head = 0; head < pair_queue.size(); ++head) {
    const size_t pr = pair_queue[head];
    const int pt = static_cast<int>(pr / m);
    const int rt = short_states[pr % m];
    for (int a = 0; a < k; ++a) {
      for (int p : preds(a, pt)) {
        for (int r : preds(a, rt)) {
          const size_t ps = cell(p, r);
          if (ps == kNoCell || miss[ps] != kUnreached) continue;
          miss[ps] = miss[pr] + 1;
          pair_queue.push_back(ps);
        }
      }
    }
  }
  auto miss_at = [&](int p, int r) {
    const size_t pr = cell(p, r);
    return pr == kNoCell ? kUnreached : miss[pr];
  };
  auto miss_after = [&](int p, int r, int a) {
    return miss_at(next(p, a), next(r, a));
  };

  // The s before x on a shortest α with δ(s, x) = p, or -1.
  std::vector<int> alpha_from(static_cast<size_t>(k) * n, -1);
  for (int s = 0; s < n; ++s) {
    if (into[s] == kUnreached) continue;
    for (int x = 0; x < k; ++x) {
      int& from = alpha_from[static_cast<size_t>(x) * n + next(s, x)];
      if (from < 0 || into[s] < into[from]) from = s;
    }
  }

  // The witness with the least |αxβ| + |γxδ| within the bound.
  int best_total = kUnreached, best_x = -1, best_p = -1, best_r = -1;
  for (int p : short_states) {
    int beta = kUnreached;
    for (int a = 0; a < k; ++a) {
      beta = std::min(beta, Plus1(to_final[next(p, a)]));
    }
    if (beta == kUnreached) continue;
    for (int r : short_states) {
      int delta = kUnreached;
      for (int a = 0; a < k; ++a) {
        delta = std::min(delta, Plus1(miss_after(p, r, a)));
      }
      if (delta == kUnreached) continue;
      for (int x = 0; x < k; ++x) {
        const int sp = alpha_from[static_cast<size_t>(x) * n + p];
        const int sr = alpha_from[static_cast<size_t>(x) * n + r];
        if (sp < 0 || sr < 0) continue;
        const int first = into[sp] + 1 + beta;
        const int second = into[sr] + 1 + delta;
        if (bounded &&
            (first > max_word_length || second > max_word_length)) {
          continue;
        }
        if (first + second < best_total) {
          best_total = first + second;
          best_x = x;
          best_p = p;
          best_r = r;
        }
      }
    }
  }
  if (best_x < 0) return std::nullopt;

  // Spell the legs out along the tables, the first letter on ties.
  auto argmin = [k](auto&& after) {
    int best = 0;
    for (int a = 1; a < k; ++a) {
      if (after(a) < after(best)) best = a;
    }
    return best;
  };
  auto alpha_leg = [&](int p) {
    const int s = alpha_from[static_cast<size_t>(best_x) * n + p];
    std::string word(1, dfa.alphabet()[into_letter[s]]);
    for (int t = into_state[s]; via_state[t] >= 0; t = via_state[t]) {
      word.insert(word.begin(), dfa.alphabet()[via_letter[t]]);
    }
    return word;
  };
  FourLeggedWitness witness;
  witness.body = dfa.alphabet()[best_x];
  witness.alpha = alpha_leg(best_p);
  witness.gamma = alpha_leg(best_r);
  for (int s = best_p; witness.beta.empty() || to_final[s] != 0;) {
    const int a = argmin([&](int b) { return to_final[next(s, b)]; });
    witness.beta += dfa.alphabet()[a];
    s = next(s, a);
  }
  for (int p = best_p, r = best_r;
       witness.delta.empty() || miss_at(p, r) != 0;) {
    const int a = argmin([&](int b) { return miss_after(p, r, b); });
    witness.delta += dfa.alphabet()[a];
    p = next(p, a);
    r = next(r, a);
  }
  return MakeStableLegs(lang, witness);
}

FourLeggedWitness MakeStableLegs(const Language& lang,
                                 const FourLeggedWitness& witness) {
  // Proof of Lemma 5.5, verbatim. Invariant: `current` is a valid witness
  // with body x; each iteration either certifies stability or strictly
  // shrinks |αxδ|, so the loop terminates.
  FourLeggedWitness current = witness;
  const char x = witness.body;
  for (;;) {
    std::string eta_prime = current.CrossWord();  // α'xδ'
    RPQRES_CHECK(!lang.Contains(eta_prime));
    // Find a strict infix η of η' that is in L, if any.
    bool found = false;
    size_t found_start = 0, found_len = 0;
    for (size_t start = 0; start <= eta_prime.size() && !found; ++start) {
      for (size_t len = 0; start + len <= eta_prime.size(); ++len) {
        if (len == eta_prime.size() && start == 0) continue;  // not strict
        if (lang.Contains(eta_prime.substr(start, len))) {
          found = true;
          found_start = start;
          found_len = len;
          break;
        }
      }
    }
    if (!found) {
      current.stable = true;
      return current;
    }
    // η must straddle the body position |α'| (else it would be a strict
    // infix of a word of the infix-free language L). Write α' = α2 α1,
    // δ' = δ1 δ2 with η = α1 x δ1.
    size_t body_pos = current.alpha.size();
    RPQRES_CHECK_MSG(found_start <= body_pos &&
                         found_start + found_len > body_pos,
                     "infix does not straddle the body; L not infix-free?");
    std::string alpha1 = current.alpha.substr(found_start);
    std::string delta1 =
        eta_prime.substr(body_pos + 1,
                         found_start + found_len - body_pos - 1);
    bool alpha2_nonempty = found_start > 0;
    bool delta2_nonempty =
        found_start + found_len < eta_prime.size();
    RPQRES_CHECK(alpha2_nonempty || delta2_nonempty);
    RPQRES_CHECK(!alpha1.empty() && !delta1.empty());

    FourLeggedWitness next;
    next.body = x;
    if (delta2_nonempty) {
      // Case δ2 ≠ ε: α := γ', β := δ', γ := α1, δ := δ1.
      next.alpha = current.gamma;
      next.beta = current.delta;
      next.gamma = alpha1;
      next.delta = delta1;
    } else {
      // Case α2 ≠ ε: α := α1, β := δ1, γ := α', δ := β'.
      next.alpha = alpha1;
      next.beta = delta1;
      next.gamma = current.alpha;
      next.delta = current.beta;
    }
    RPQRES_CHECK(lang.Contains(next.FirstWord()));
    RPQRES_CHECK(lang.Contains(next.SecondWord()));
    RPQRES_CHECK(!lang.Contains(next.CrossWord()));
    current = next;
  }
}

}  // namespace rpqres
