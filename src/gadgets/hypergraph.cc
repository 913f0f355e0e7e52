#include "gadgets/hypergraph.h"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

#include "automata/ops.h"
#include "graphdb/label_index.h"
#include "util/check.h"

namespace rpqres {

void Hypergraph::Normalize() {
  for (std::vector<int>& edge : edges) {
    std::sort(edge.begin(), edge.end());
    edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

std::string Hypergraph::ToString() const {
  std::ostringstream os;
  for (const std::vector<int>& edge : edges) {
    os << "{";
    for (size_t i = 0; i < edge.size(); ++i) {
      if (i > 0) os << ", ";
      if (edge[i] < static_cast<int>(vertex_names.size()) &&
          !vertex_names[edge[i]].empty()) {
        os << vertex_names[edge[i]];
      } else {
        os << edge[i];
      }
    }
    os << "}\n";
  }
  return os.str();
}

namespace {

// True iff the fact graph of `db` has a directed cycle (nodes as
// vertices): Kahn's topological sort then leaves some node unsorted.
bool HasDirectedCycle(const GraphDb& db, const LabelIndex& index) {
  std::vector<int> in_degree(db.num_nodes(), 0);
  for (char label : index.labels()) {
    for (FactId f : index.Facts(label)) ++in_degree[db.fact(f).target];
  }
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    if (in_degree[v] == 0) ready.push_back(v);
  }
  int sorted = 0;
  while (!ready.empty()) {
    NodeId v = ready.back();
    ready.pop_back();
    ++sorted;
    for (char label : index.labels()) {
      for (FactId f : index.FactsFrom(label, v)) {
        NodeId to = db.fact(f).target;
        if (--in_degree[to] == 0) ready.push_back(to);
      }
    }
  }
  return sorted < db.num_nodes();
}

}  // namespace

Result<Hypergraph> HypergraphOfMatches(const Language& lang,
                                       const GraphDb& db, size_t max_walks) {
  const LabelIndex index(db);
  const std::vector<char>& labels = index.labels();
  // Determine a walk-length bound.
  int max_length;
  if (lang.IsFinite()) {
    // The longest word: a word of a finite language visits no state twice.
    const Dfa& dfa = lang.min_dfa();
    const std::vector<uint64_t> counts =
        CountWordsByLength(dfa, dfa.num_states());
    max_length = 0;
    for (int len = 0; len < static_cast<int>(counts.size()); ++len) {
      if (counts[len] > 0) max_length = len;
    }
  } else {
    if (HasDirectedCycle(db, index)) {
      return Status::FailedPrecondition(
          "HypergraphOfMatches: infinite language over a cyclic database "
          "(matches cannot be enumerated as bounded walks)");
    }
    max_length = db.num_nodes();  // acyclic: walks repeat no node
  }

  Hypergraph h;
  h.num_vertices = db.num_facts();
  for (FactId f = 0; f < db.num_facts(); ++f) {
    const Fact& fact = db.fact(f);
    h.vertex_names.push_back(std::string(1, fact.label) + "(" +
                             db.node_name(fact.source) + "," +
                             db.node_name(fact.target) + ")");
  }

  // DFS over all walks up to max_length from every node; every walk whose
  // label is in L contributes its fact set as a hyperedge. Walks may repeat
  // facts; the match is the set.
  std::set<std::vector<int>> matches;
  size_t walks = 0;
  std::vector<FactId> walk;
  std::string label;

  // Explicit DFS stack; a frame walks the facts out of its node label by
  // label through the index.
  struct Frame {
    NodeId node;
    size_t label_pos = 0;            // position in `labels`
    std::span<const FactId> rest{};  // unvisited facts of that label
  };
  auto open = [&](NodeId node) {
    Frame frame{node};
    if (!labels.empty()) frame.rest = index.FactsFrom(labels[0], node);
    return frame;
  };
  for (NodeId start = 0; start < db.num_nodes(); ++start) {
    std::vector<Frame> stack{open(start)};
    while (!stack.empty()) {
      Frame& frame = stack.back();
      while (frame.rest.empty() && frame.label_pos + 1 < labels.size()) {
        frame.rest = index.FactsFrom(labels[++frame.label_pos], frame.node);
      }
      if (frame.rest.empty() || static_cast<int>(walk.size()) >= max_length) {
        stack.pop_back();
        if (!walk.empty()) {
          walk.pop_back();
          label.pop_back();
        }
        continue;
      }
      FactId f = frame.rest.front();
      frame.rest = frame.rest.subspan(1);
      if (++walks > max_walks) {
        return Status::OutOfRange("HypergraphOfMatches: more than " +
                                  std::to_string(max_walks) + " walks");
      }
      walk.push_back(f);
      label.push_back(db.fact(f).label);
      if (lang.Contains(label)) {
        std::vector<int> match(walk.begin(), walk.end());
        std::sort(match.begin(), match.end());
        match.erase(std::unique(match.begin(), match.end()), match.end());
        matches.insert(std::move(match));
      }
      stack.push_back(open(db.fact(f).target));
    }
    RPQRES_DCHECK(walk.empty());
  }
  h.edges.assign(matches.begin(), matches.end());
  h.Normalize();
  return h;
}

namespace {

void HittingSetBranch(const std::vector<std::vector<int>>& edges,
                      std::vector<bool>* chosen, int cost, int* best) {
  if (cost >= *best) return;
  // Find the first unhit edge.
  const std::vector<int>* unhit = nullptr;
  for (const std::vector<int>& edge : edges) {
    bool hit = false;
    for (int v : edge) {
      if ((*chosen)[v]) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      unhit = &edge;
      break;
    }
  }
  if (unhit == nullptr) {
    *best = cost;
    return;
  }
  for (int v : *unhit) {
    (*chosen)[v] = true;
    HittingSetBranch(edges, chosen, cost + 1, best);
    (*chosen)[v] = false;
  }
}

}  // namespace

namespace {

void WeightedHittingSetBranch(const std::vector<std::vector<int>>& edges,
                              const std::vector<Capacity>& weights,
                              std::vector<bool>* chosen, Capacity cost,
                              Capacity* best_cost,
                              std::vector<bool>* best_set) {
  if (cost >= *best_cost) return;
  const std::vector<int>* unhit = nullptr;
  for (const std::vector<int>& edge : edges) {
    bool hit = false;
    for (int v : edge) {
      if ((*chosen)[v]) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      unhit = &edge;
      break;
    }
  }
  if (unhit == nullptr) {
    *best_cost = cost;
    *best_set = *chosen;
    return;
  }
  for (int v : *unhit) {
    if (weights[v] == kInfiniteCapacity) continue;  // exogenous
    (*chosen)[v] = true;
    WeightedHittingSetBranch(edges, weights, chosen, cost + weights[v],
                             best_cost, best_set);
    (*chosen)[v] = false;
  }
}

}  // namespace

HittingSetSolution MinimumWeightHittingSet(
    const Hypergraph& h, const std::vector<Capacity>& weights) {
  RPQRES_CHECK(static_cast<int>(weights.size()) == h.num_vertices);
  HittingSetSolution solution;
  // Feasibility: every edge needs at least one finite-weight vertex.
  for (const std::vector<int>& edge : h.edges) {
    bool usable = false;
    for (int v : edge) usable |= weights[v] != kInfiniteCapacity;
    if (!usable) {
      solution.feasible = false;
      return solution;
    }
  }
  // Upper bound: choose every finite-weight vertex that is on some edge.
  Capacity best_cost = 0;
  std::vector<bool> best_set(h.num_vertices, false);
  for (const std::vector<int>& edge : h.edges) {
    for (int v : edge) {
      if (!best_set[v] && weights[v] != kInfiniteCapacity) {
        best_set[v] = true;
        best_cost += weights[v];
      }
    }
  }
  std::vector<bool> chosen(h.num_vertices, false);
  Capacity cost_bound = best_cost + 1;
  WeightedHittingSetBranch(h.edges, weights, &chosen, 0, &cost_bound,
                           &best_set);
  solution.cost = std::min(cost_bound, best_cost);
  for (int v = 0; v < h.num_vertices; ++v) {
    if (best_set[v]) solution.vertices.push_back(v);
  }
  return solution;
}

int MinimumHittingSetSize(const Hypergraph& h) {
  for (const std::vector<int>& edge : h.edges) {
    if (edge.empty()) return -1;
  }
  int best = 0;
  // Upper bound: one vertex per edge.
  best = static_cast<int>(h.edges.size());
  std::vector<bool> chosen(h.num_vertices, false);
  int result = best + 1;
  HittingSetBranch(h.edges, &chosen, 0, &result);
  return std::min(result, best);
}

}  // namespace rpqres
