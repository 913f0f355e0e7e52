#include "lang/star_free.h"

#include <set>
#include <vector>

#include "automata/ops.h"

namespace rpqres {
namespace {

using Element = std::vector<int>;  // total function states -> states

// Every element is a |Q|-vector, so the walk keeps elements × |Q| state
// ids (twice: the seen set and the list): 2^22 of them is 16 MiB each.
constexpr size_t kMaxMonoidEntries = size_t{1} << 22;

Element Compose(const Element& f, const Element& g) {
  // (f ∘ g)(q) = g(f(q)): first apply f, then g — matches reading a word
  // labeled f then a word labeled g.
  Element out(f.size());
  for (size_t q = 0; q < f.size(); ++q) out[q] = g[f[q]];
  return out;
}

// Generates the transition monoid of a complete DFA breadth-first; fails
// once it exceeds max_monoid_size elements or kMaxMonoidEntries state ids.
Result<std::vector<Element>> GenerateMonoid(const Dfa& dfa,
                                            size_t max_monoid_size) {
  const size_t n = static_cast<size_t>(dfa.num_states());
  Element identity(n);
  for (size_t q = 0; q < n; ++q) identity[q] = static_cast<int>(q);

  std::vector<Element> generators;
  for (size_t i = 0; i < dfa.alphabet().size(); ++i) {
    Element gen(n);
    for (size_t q = 0; q < n; ++q) {
      gen[q] = dfa.NextByIndex(static_cast<int>(q), static_cast<int>(i));
    }
    generators.push_back(std::move(gen));
  }

  std::set<Element> seen;
  std::vector<Element> elements;  // in discovery order: the BFS queue
  auto add = [&](Element e) {
    if (seen.insert(e).second) elements.push_back(std::move(e));
  };
  add(identity);
  for (size_t next = 0; next < elements.size(); ++next) {
    for (const Element& gen : generators) {
      if (elements.size() > max_monoid_size) {
        return Status::OutOfRange(
            "transition monoid exceeds cap of " +
            std::to_string(max_monoid_size) + " elements");
      }
      if (elements.size() * n > kMaxMonoidEntries) {
        return Status::OutOfRange(
            "transition monoid exceeds cap of " +
            std::to_string(kMaxMonoidEntries) + " state ids: " +
            std::to_string(elements.size()) + " elements of " +
            std::to_string(n) + " states");
      }
      add(Compose(elements[next], gen));
    }
  }
  return elements;
}

// True iff f^k = f^{k+1} for some k (the aperiodicity condition per
// element). For k ≥ |Q| every f^k(q) lies on a cycle of f's functional
// graph, so that holds iff every cycle of f is a fixed point: one walk per
// state, O(|Q|) in all.
bool ElementIsAperiodic(const Element& f) {
  enum : char { kUnseen, kOnWalk, kDone };
  std::vector<char> mark(f.size(), kUnseen);
  for (size_t start = 0; start < f.size(); ++start) {
    int q = static_cast<int>(start);
    while (mark[q] == kUnseen) {
      mark[q] = kOnWalk;
      q = f[q];
    }
    // The walk closed a new cycle through q: aperiodic only if q = f(q).
    if (mark[q] == kOnWalk && f[q] != q) return false;
    for (int p = static_cast<int>(start); mark[p] == kOnWalk; p = f[p]) {
      mark[p] = kDone;
    }
  }
  return true;
}

}  // namespace

Result<bool> IsStarFree(const Language& lang, size_t max_monoid_size) {
  const Dfa& dfa = lang.min_dfa();  // minimal complete DFA
  RPQRES_ASSIGN_OR_RETURN(std::vector<Element> monoid,
                          GenerateMonoid(dfa, max_monoid_size));
  for (const Element& e : monoid) {
    if (!ElementIsAperiodic(e)) return false;
  }
  return true;
}

Result<size_t> TransitionMonoidSize(const Language& lang,
                                    size_t max_monoid_size) {
  RPQRES_ASSIGN_OR_RETURN(
      std::vector<Element> monoid,
      GenerateMonoid(lang.min_dfa(), max_monoid_size));
  return monoid.size();
}

}  // namespace rpqres
