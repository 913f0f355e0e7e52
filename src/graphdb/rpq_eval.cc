#include "graphdb/rpq_eval.h"

#include <algorithm>
#include <queue>

#include "util/check.h"

namespace rpqres {
namespace {

// Product-graph BFS over configurations (node, automaton state). Fact moves
// cost 1 step; ε-moves cost 0 (handled by closure-style expansion inside the
// BFS so that shortest means fewest facts).
//
// Returns parent pointers for walk reconstruction when `reconstruct`.
struct ProductSearch {
  const GraphDb& db;
  const LabelIndex& index;
  const Enfa& query;
  const std::vector<bool>* removed_facts = nullptr;
  // Fixed endpoints (the non-Boolean setting): when >= 0, walks must start
  // at fixed_source and end at fixed_target.
  NodeId fixed_source = -1;
  NodeId fixed_target = -1;

  bool IsRemoved(FactId id) const {
    return removed_facts != nullptr && (*removed_facts)[id];
  }

  // Dense product-state id.
  int Id(NodeId v, int s) const { return v * query.num_states() + s; }

  std::optional<WitnessWalk> Run(bool reconstruct) const {
    // ε ∈ L(query)?  Then the empty walk is a witness (for fixed
    // endpoints, only when they coincide).
    std::vector<int> start = query.EpsilonClosure(query.initial_states());
    for (int s : start) {
      if (query.IsFinal(s) &&
          (fixed_source < 0 || fixed_source == fixed_target)) {
        return WitnessWalk{};
      }
    }
    if (db.num_nodes() == 0) return std::nullopt;

    int total = db.num_nodes() * query.num_states();
    std::vector<bool> seen(total, false);
    // parent_fact[p] = fact used to enter p (-1 for ε / start);
    // parent_state[p] = previous product id (-1 for start).
    std::vector<FactId> parent_fact;
    std::vector<int> parent_state;
    if (reconstruct) {
      parent_fact.assign(total, -1);
      parent_state.assign(total, -1);
    }

    // Precompute ε-adjacency of the automaton.
    std::vector<std::vector<int>> eps_out(query.num_states());
    std::vector<std::vector<std::pair<char, int>>> letter_out(
        query.num_states());
    for (const EnfaTransition& t : query.transitions()) {
      if (t.symbol == kEpsilonSymbol) {
        eps_out[t.from].push_back(t.to);
      } else {
        letter_out[t.from].push_back({t.symbol, t.to});
      }
    }

    std::queue<int> queue;
    // ε-expansion helper: marks (v, s) seen and immediately expands its
    // whole ε-closure at the same BFS level (ε-moves cost 0 facts; product
    // ε-edges stay within the same database node, so plain BFS plus eager
    // closure expansion yields fewest-facts shortest walks).
    auto push_with_closure = [&](NodeId v, int s, FactId via_fact,
                                 int via_state) {
      int p0 = Id(v, s);
      if (seen[p0]) return;
      seen[p0] = true;
      if (reconstruct) {
        parent_fact[p0] = via_fact;
        parent_state[p0] = via_state;
      }
      queue.push(p0);
      std::vector<int> stack{s};
      while (!stack.empty()) {
        int state = stack.back();
        stack.pop_back();
        int p = Id(v, state);
        for (int to : eps_out[state]) {
          int q = Id(v, to);
          if (!seen[q]) {
            seen[q] = true;
            if (reconstruct) {
              // ε-step within the same node: parent is p, no fact consumed.
              parent_fact[q] = -1;
              parent_state[q] = p;
            }
            queue.push(q);
            stack.push_back(to);
          }
        }
      }
    };

    for (NodeId v = 0; v < db.num_nodes(); ++v) {
      if (fixed_source >= 0 && v != fixed_source) continue;
      for (int s : query.initial_states()) {
        push_with_closure(v, s, -1, -1);
      }
    }

    while (!queue.empty()) {
      int p = queue.front();
      queue.pop();
      NodeId v = p / query.num_states();
      int s = p % query.num_states();
      if (query.IsFinal(s) && (fixed_target < 0 || v == fixed_target)) {
        if (!reconstruct) return WitnessWalk{};
        // Walk reconstruction: follow parents back to a start config.
        WitnessWalk walk;
        int current = p;
        while (current != -1) {
          FactId f = parent_fact[current];
          if (f != -1) walk.push_back(f);
          current = parent_state[current];
        }
        std::reverse(walk.begin(), walk.end());
        return walk;
      }
      for (auto [symbol, to] : letter_out[s]) {
        for (FactId fid : index.FactsFrom(symbol, v)) {
          if (IsRemoved(fid)) continue;
          NodeId target = db.fact(fid).target;
          if (!seen[Id(target, to)]) push_with_closure(target, to, fid, p);
        }
      }
    }
    return std::nullopt;
  }
};

}  // namespace

bool EvaluatesToTrue(const GraphDb& db, const LabelIndex& index,
                     const Enfa& query,
                     const std::vector<bool>* removed_facts) {
  return ProductSearch{db, index, query, removed_facts}
      .Run(/*reconstruct=*/false)
      .has_value();
}

bool EvaluatesToTrue(const GraphDb& db, const Language& lang) {
  return EvaluatesToTrue(db, LabelIndex(db), lang.enfa());
}

std::optional<WitnessWalk> ShortestWitnessWalk(
    const GraphDb& db, const LabelIndex& index, const Enfa& query,
    const std::vector<bool>* removed_facts) {
  return ProductSearch{db, index, query, removed_facts}.Run(
      /*reconstruct=*/true);
}

std::optional<WitnessWalk> ShortestWitnessWalk(const GraphDb& db,
                                               const Language& lang) {
  return ShortestWitnessWalk(db, LabelIndex(db), lang.enfa());
}

bool EvaluatesToTrueBetween(const GraphDb& db, const LabelIndex& index,
                            const Enfa& query, NodeId source, NodeId target,
                            const std::vector<bool>* removed_facts) {
  ProductSearch search{db, index, query, removed_facts, source, target};
  return search.Run(/*reconstruct=*/false).has_value();
}

std::string WalkLabel(const GraphDb& db, const WitnessWalk& walk) {
  std::string label;
  for (FactId id : walk) label.push_back(db.fact(id).label);
  return label;
}

std::vector<FactId> WalkMatch(const WitnessWalk& walk) {
  std::vector<FactId> match = walk;
  std::sort(match.begin(), match.end());
  match.erase(std::unique(match.begin(), match.end()), match.end());
  return match;
}

}  // namespace rpqres
