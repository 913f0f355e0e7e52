#include "graphdb/rpq_eval.h"

#include <algorithm>
#include <queue>

namespace rpqres {
namespace {

// Product-graph BFS over configurations (node, DFA state). Every move
// consumes one fact, so the first final configuration the BFS pops ends a
// walk with the fewest facts.
//
// Returns parent pointers for walk reconstruction when `reconstruct`.
struct ProductSearch {
  const GraphDb& db;
  const LabelIndex& index;
  const Dfa& query;
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
    const int num_states = query.num_states();
    if (num_states == 0) return std::nullopt;
    const int initial = query.initial();
    // ε ∈ L(query)?  Then the empty walk is a witness (for fixed
    // endpoints, only when they coincide).
    if (query.IsFinal(initial) &&
        (fixed_source < 0 || fixed_source == fixed_target)) {
      return WitnessWalk{};
    }
    // sink[s]: s is not final and each of its transitions loops or is
    // missing, so no walk through s ends in L. A minimal DFA has at most
    // one such state, and every other state reaches a final one.
    const int sigma = static_cast<int>(query.alphabet().size());
    std::vector<bool> sink(num_states, false);
    for (int s = 0; s < num_states; ++s) {
      bool loops = !query.IsFinal(s);
      for (int i = 0; i < sigma && loops; ++i) {
        const int to = query.NextByIndex(s, i);
        loops = to == s || to == kNoState;
      }
      sink[s] = loops;
    }
    if (sink[initial] || db.num_nodes() == 0) return std::nullopt;

    const int total = db.num_nodes() * num_states;
    std::vector<bool> seen(total, false);
    // parent_fact[p] = fact used to enter p, parent_state[p] = the product
    // id it was entered from; both -1 at a start configuration.
    std::vector<FactId> parent_fact;
    std::vector<int> parent_state;
    if (reconstruct) {
      parent_fact.assign(total, -1);
      parent_state.assign(total, -1);
    }

    std::queue<int> queue;
    auto push = [&](int p, FactId via_fact, int via_state) {
      seen[p] = true;
      if (reconstruct) {
        parent_fact[p] = via_fact;
        parent_state[p] = via_state;
      }
      queue.push(p);
    };
    for (NodeId v = 0; v < db.num_nodes(); ++v) {
      if (fixed_source < 0 || v == fixed_source) push(Id(v, initial), -1, -1);
    }

    while (!queue.empty()) {
      const int p = queue.front();
      queue.pop();
      const NodeId v = p / num_states;
      const int s = p % num_states;
      if (query.IsFinal(s) && (fixed_target < 0 || v == fixed_target)) {
        if (!reconstruct) return WitnessWalk{};
        // Walk reconstruction: follow parents back to a start config.
        WitnessWalk walk;
        for (int current = p; parent_fact[current] != -1;
             current = parent_state[current]) {
          walk.push_back(parent_fact[current]);
        }
        std::reverse(walk.begin(), walk.end());
        return walk;
      }
      for (int i = 0; i < sigma; ++i) {
        const int to = query.NextByIndex(s, i);
        if (to == kNoState || sink[to]) continue;
        for (FactId fid : index.FactsFrom(query.alphabet()[i], v)) {
          if (IsRemoved(fid)) continue;
          const int q = Id(db.fact(fid).target, to);
          if (!seen[q]) push(q, fid, p);
        }
      }
    }
    return std::nullopt;
  }
};

}  // namespace

bool EvaluatesToTrue(const GraphDb& db, const LabelIndex& index,
                     const Dfa& query,
                     const std::vector<bool>* removed_facts) {
  return ProductSearch{db, index, query, removed_facts}
      .Run(/*reconstruct=*/false)
      .has_value();
}

bool EvaluatesToTrue(const GraphDb& db, const Language& lang) {
  return EvaluatesToTrue(db, LabelIndex(db), lang.min_dfa());
}

std::optional<WitnessWalk> ShortestWitnessWalk(
    const GraphDb& db, const LabelIndex& index, const Dfa& query,
    const std::vector<bool>* removed_facts) {
  return ProductSearch{db, index, query, removed_facts}.Run(
      /*reconstruct=*/true);
}

std::optional<WitnessWalk> ShortestWitnessWalk(const GraphDb& db,
                                               const Language& lang) {
  return ShortestWitnessWalk(db, LabelIndex(db), lang.min_dfa());
}

bool EvaluatesToTrueBetween(const GraphDb& db, const LabelIndex& index,
                            const Dfa& query, NodeId source, NodeId target,
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
