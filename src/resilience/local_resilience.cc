#include "resilience/local_resilience.h"

#include <algorithm>
#include <optional>

#include "flow/residual_graph.h"
#include "flow/solver_scratch.h"
#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "obs/trace.h"
#include "util/check.h"

namespace rpqres {

namespace {

// Shared implementation of Thm 3.13's product network N_{D,A}, built
// directly into the scratch's CSR residual graph from the precomputed
// per-automaton tables. With fixed_source/fixed_target >= 0, only walks
// between those nodes count (the non-Boolean extension; the
// cut↔contingency correspondence is unaffected by which product vertices
// hook to the terminals). With a `split`, facts of the split letter pass
// through per-node middle vertices (Prp 7.9; see LetterSplit).
//
// Product pruning: a product vertex (v, s) can lie on a source-target
// path only if it is reachable from a hooked-up (node, initial) pair AND
// co-reachable from a hooked-up (node, final) pair. Every L-walk of the
// database corresponds to a path through live vertices only, so emitting
// arcs (fact, ε, and terminal hookups) at live vertices alone preserves
// every cut and its value; dead vertices — usually the bulk of |V|·|S| —
// are never materialized. A middle vertex has one way in and one way out
// (its split facts on one side, its z-edge on the other), so the sweeps
// step over it: a split fact counts as a product edge iff its split-side
// node has a z-edge, and the middle vertex is live iff one of its split
// facts is staged.
//
// Terminal contraction: a live pair whose state lies in the ε-closure of
// an initial state (at the fixed source, when there is one) is joined to
// t_source by infinite edges alone, so it is on the source side of every
// finite cut; it takes the source's id instead of a vertex of its own.
// Likewise a pair that ε-reaches a final state (at the fixed target)
// takes the target's id. Finite cuts, their values and the cut closest to
// the source stay those of N_{D,A}. No edge into the source or out of the
// target is staged (none can cross a cut), so the hookups disappear, and
// so do the ε-edges out of contracted pairs: those out of a source pair
// stay inside the source, those out of a target pair leave the target.
// The test-only disable_product_pruning mode builds N_{D,A} itself.
ResilienceResult SolveLocalProduct(const RoProductTables& t, const GraphDb& db,
                                   Semantics semantics, NodeId fixed_source,
                                   NodeId fixed_target,
                                   const LabelIndex& label_index,
                                   const LetterSplit* split,
                                   SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  ResilienceResult result;
  result.algorithm = fixed_source < 0
                         ? "local flow (Thm 3.13)"
                         : "local flow, fixed endpoints (Thm 3.13 ext)";
  if (t.accepts_epsilon &&
      (fixed_source < 0 || fixed_source == fixed_target)) {
    // ε ∈ L: the (possibly endpoint-constrained) query holds on every
    // subinstance, so resilience is +∞.
    result.infinite = true;
    return result;
  }

  const int S = t.num_states;
  const int V = db.num_nodes();
  const int64_t product_size = int64_t{V} * S;
  const auto& letter_from = t.letter_from;
  const auto& letter_to = t.letter_to;

  // (node, state) pairs travel the queues packed as (v << 32 | s) —
  // decoded by shifts — and key the stamped marks as v*S + s.
  auto pack = [](NodeId v, int s) {
    return (int64_t{v} << 32) | static_cast<uint32_t>(s);
  };
  auto key_of = [S](int64_t packed) {
    return (packed >> 32) * S + (packed & 0xffffffff);
  };

  // The split letter, or -1 when there is no split or the automaton does
  // not read the letter (then no split fact can join the network). A
  // split fact is *open* iff its split-side node has a z-edge.
  const int split_label =
      split != nullptr &&
              letter_from[static_cast<unsigned char>(split->letter)] >= 0
          ? static_cast<unsigned char>(split->letter)
          : -1;
  auto split_node = [&](FactId f) {
    const Fact& fact = db.fact(f);
    return split->at_target ? fact.target : fact.source;
  };
  auto open = [&](int label, FactId f) {
    return label != split_label || split->z[split_node(f)] > 0;
  };

  // --- Reach / co-reach sweep over (node, state) ---------------------------
  obs::TraceContext* trace = scratch->trace;
  obs::ScopedSpan prune_span(trace, obs::SpanKind::kProductPrune);
  auto& fwd = scratch->reach_fwd;
  auto& bwd = scratch->reach_bwd;
  auto& fwd_visited = scratch->fwd_visited;
  auto& bwd_queue = scratch->bwd_queue;
  auto& candidate_facts = scratch->candidate_facts;
  fwd.Reset(product_size);
  bwd.Reset(product_size);
  fwd_visited.clear();
  bwd_queue.clear();
  candidate_facts.clear();
  int64_t relevant_facts = 0;

  if (!scratch->disable_product_pruning) {
    auto push_fwd = [&](NodeId v, int s) {
      if (fwd.TryInsert(int64_t{v} * S + s)) fwd_visited.push_back(pack(v, s));
    };
    if (fixed_source < 0) {
      for (NodeId v = 0; v < V; ++v) {
        for (int s : t.initial_states) push_fwd(v, s);
      }
    } else {
      for (int s : t.initial_states) push_fwd(fixed_source, s);
    }
    for (size_t head = 0; head < fwd_visited.size(); ++head) {
      int64_t code = fwd_visited[head];
      NodeId v = static_cast<NodeId>(code >> 32);
      int s = static_cast<int>(code & 0xffffffff);
      for (int32_t i = t.eps_out_offset[s]; i < t.eps_out_offset[s + 1];
           ++i) {
        push_fwd(v, t.eps_out[i]);
      }
      // Every relevant fact is enumerated at most once across the sweep
      // (its tail (source, from-state) pair pops at most once), so this
      // doubles as the candidate-edge discovery pass.
      for (int32_t i = t.labels_out_offset[s]; i < t.labels_out_offset[s + 1];
           ++i) {
        const int label = t.labels_out[i];
        const int to_state = letter_to[label];
        for (FactId f : label_index.FactsFrom(static_cast<char>(label), v)) {
          if (!open(label, f)) continue;
          candidate_facts.push_back(f);
          push_fwd(db.fact(f).target, to_state);
        }
      }
    }

    auto push_bwd = [&](NodeId v, int s) {
      if (bwd.TryInsert(int64_t{v} * S + s)) bwd_queue.push_back(pack(v, s));
    };
    if (fixed_target < 0) {
      for (NodeId v = 0; v < V; ++v) {
        for (int s : t.final_states) push_bwd(v, s);
      }
    } else {
      for (int s : t.final_states) push_bwd(fixed_target, s);
    }
    for (size_t head = 0; head < bwd_queue.size(); ++head) {
      int64_t code = bwd_queue[head];
      NodeId v = static_cast<NodeId>(code >> 32);
      int s = static_cast<int>(code & 0xffffffff);
      for (int32_t i = t.eps_in_offset[s]; i < t.eps_in_offset[s + 1]; ++i) {
        push_bwd(v, t.eps_in[i]);
      }
      for (int32_t i = t.labels_in_offset[s]; i < t.labels_in_offset[s + 1];
           ++i) {
        const int label = t.labels_in[i];
        const int from_state = letter_from[label];
        for (FactId f : label_index.FactsInto(static_cast<char>(label), v)) {
          if (!open(label, f)) continue;
          push_bwd(db.fact(f).source, from_state);
        }
      }
    }
    relevant_facts = static_cast<int64_t>(candidate_facts.size());
  } else {
    // Parity-test mode: everything is live (the pre-pruning construction).
    for (NodeId v = 0; v < V; ++v) {
      for (int s = 0; s < S; ++s) {
        fwd.TryInsert(int64_t{v} * S + s);
        bwd.TryInsert(int64_t{v} * S + s);
        fwd_visited.push_back(pack(v, s));
      }
    }
    for (int l = 0; l < 256; ++l) {
      if (letter_from[l] < 0) continue;
      for (FactId f : label_index.Facts(static_cast<char>(l))) {
        if (open(l, f)) candidate_facts.push_back(f);
      }
    }
    relevant_facts = static_cast<int64_t>(candidate_facts.size());
  }

  // Dense network ids for live vertices: 0 = source, 1 = target (with
  // the pairs contracted into them), then the other live (node, state)
  // pairs in forward-visit order.
  auto& product_id = scratch->product_id;
  auto& live_list = scratch->live_list;
  product_id.Reset(product_size);
  live_list.clear();
  const bool contract = !scratch->disable_product_pruning;
  int32_t live_count = 0;
  for (int64_t code : fwd_visited) {
    int64_t key = key_of(code);
    if (!bwd.Contains(key)) continue;
    const NodeId v = static_cast<NodeId>(code >> 32);
    const int s = static_cast<int>(code & 0xffffffff);
    if (contract && t.eps_from_initial[s] &&
        (fixed_source < 0 || v == fixed_source)) {
      product_id.Set(key, 0);
    } else if (contract && t.eps_to_final[s] &&
               (fixed_target < 0 || v == fixed_target)) {
      product_id.Set(key, 1);
    } else {
      product_id.Set(key, 2 + live_count++);
      live_list.push_back(code);
    }
  }

  prune_span.End();

  // --- Arc emission, straight into the CSR residual graph -----------------
  obs::ScopedSpan build_span(trace, obs::SpanKind::kFlowBuild);
  ResidualGraph& network = scratch->graph;
  network.Reset(2 + live_count);
  network.SetSource(0);
  network.SetTarget(1);

  // One finite-capacity edge per live fact of D (the 1-to-1
  // correspondence that makes cuts = contingency sets). Fact edges are
  // staged before any structural edge, so edge id == index into
  // fact_of_edge.
  auto& fact_of_edge = scratch->fact_of_edge;  // edge id -> fact id
  fact_of_edge.clear();
  auto& middle_of = scratch->middle_of;
  auto& middle_nodes = scratch->middle_nodes;
  middle_nodes.clear();
  if (split != nullptr) {
    middle_of.assign(V, -1);
    scratch->z_cut.assign(V, 0);
  }
  for (FactId f : candidate_facts) {
    const Fact& fact = db.fact(f);
    unsigned char label = static_cast<unsigned char>(fact.label);
    int32_t from =
        product_id.Get(int64_t{fact.source} * S + letter_from[label]);
    if (from < 0) continue;
    int32_t to = product_id.Get(int64_t{fact.target} * S + letter_to[label]);
    if (to < 0) continue;
    if (from == 1 || to == 0) continue;  // out of the target or into the source
    if (label == split_label) {
      // The z-edge will join the middle vertex to the product vertex on
      // the split side, which is live because this fact is. That vertex
      // may be a terminal, but never the source at targets nor the target
      // at sources, so the z-edge neither enters the source nor leaves
      // the target.
      const NodeId node = split_node(f);
      if (middle_of[node] < 0) {
        middle_of[node] = network.AddVertex();
        middle_nodes.push_back(node);
      }
      (split->at_target ? to : from) = middle_of[node];
    }
    int32_t edge = network.AddEdge(from, to, db.Cost(f, semantics));
    RPQRES_CHECK(edge == static_cast<int32_t>(fact_of_edge.size()));
    fact_of_edge.push_back(f);
  }
  // One z-edge per middle vertex, right after the fact edges: edge id
  // fact_of_edge.size() + i is the z-edge of middle_nodes[i].
  for (NodeId node : middle_nodes) {
    const int state = split->at_target ? letter_to[split_label]
                                        : letter_from[split_label];
    const int32_t product = product_id.Get(int64_t{node} * S + state);
    if (split->at_target) {
      network.AddEdge(middle_of[node], product, split->z[node]);
    } else {
      network.AddEdge(product, middle_of[node], split->z[node]);
    }
  }

  // Structural edges at uncontracted live vertices only: ε-transitions
  // within each database node (none into the source), and in the
  // reference network the source/target hookups at initial/final states
  // (or at the fixed endpoints only).
  for (size_t i = 0; i < live_list.size(); ++i) {
    int64_t code = live_list[i];
    int32_t id = 2 + static_cast<int32_t>(i);
    NodeId v = static_cast<NodeId>(code >> 32);
    int s = static_cast<int>(code & 0xffffffff);
    for (int32_t e = t.eps_out_offset[s]; e < t.eps_out_offset[s + 1]; ++e) {
      int32_t to = product_id.Get(int64_t{v} * S + t.eps_out[e]);
      if (to > 0) network.AddEdge(id, to, kInfiniteCapacity);
    }
    if (contract) continue;
    if (t.is_initial[s] && (fixed_source < 0 || v == fixed_source)) {
      network.AddEdge(0, id, kInfiniteCapacity);
    }
    if (t.is_final[s] && (fixed_target < 0 || v == fixed_target)) {
      network.AddEdge(id, 1, kInfiniteCapacity);
    }
  }

  build_span.End();
  const MinCutView& cut = network.Solve(trace);
  if (cut.infinite) {
    // With ε ∉ L every source-target path crosses a fact edge, so an
    // infinite cut means some L-walk consists of exogenous facts only:
    // the query cannot be falsified by deleting endogenous facts.
    result.infinite = true;
    return result;
  }
  obs::ScopedSpan cut_span(trace, obs::SpanKind::kCutExtract);
  result.value = cut.value;
  const int32_t fact_edges = static_cast<int32_t>(fact_of_edge.size());
  const int32_t z_edges = static_cast<int32_t>(middle_nodes.size());
  result.contingency.reserve(cut.cut_edges.size());
  for (int32_t edge : cut.cut_edges) {
    RPQRES_CHECK_MSG(edge >= 0 && edge < fact_edges + z_edges,
                     "cut contains a structural edge");
    if (edge < fact_edges) {
      result.contingency.push_back(fact_of_edge[edge]);
    } else {
      scratch->z_cut[middle_nodes[edge - fact_edges]] = 1;
    }
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());
  result.network_vertices = network.num_vertices();
  result.network_edges = network.num_edges();
  // Pruning telemetry: what the full |V|·|S| construction would have
  // materialized beyond what we staged (the fact component counts only
  // sweep-discovered candidates, so it is a conservative lower bound).
  // A split adds one middle vertex and one z-edge per node with a z-edge.
  int64_t open_nodes = 0;
  if (split_label >= 0) {
    for (Capacity z : split->z) open_nodes += z > 0 ? 1 : 0;
  }
  int64_t full_edges =
      relevant_facts + open_nodes + t.eps_transitions * V +
      (fixed_source < 0 ? int64_t{V} : 1) *
          static_cast<int64_t>(t.initial_states.size()) +
      (fixed_target < 0 ? int64_t{V} : 1) *
          static_cast<int64_t>(t.final_states.size());
  result.product_vertices_pruned =
      product_size + open_nodes - (network.num_vertices() - 2);
  result.product_edges_pruned = full_edges - network.num_edges();
  return result;
}

// Obtains an RO-εNFA for L or IF(L); IF(L) may be local even when L is
// not (e.g. a|aa). Note IF preserves the query even with fixed endpoints:
// a sub-walk of an s→t walk witnesses Q existentially, but conversely the
// IF rewrite is only safe for endpoint-free queries OR when used on a
// language that is already infix-free; we therefore only fall back to
// IF(L) when it is equivalent to L for the constrained semantics, i.e.
// for Boolean use. Fixed-endpoint callers pass require_exact = true.
Result<Enfa> RoEnfaForSolver(const Language& lang, bool require_exact) {
  Result<Enfa> ro = BuildRoEnfa(lang);
  if (ro.ok()) return ro;
  if (!require_exact) {
    Language ifl = InfixFreeSublanguage(lang);
    ro = BuildRoEnfa(ifl);
    if (ro.ok()) return ro;
  }
  return Status::FailedPrecondition(
      "local resilience: " + lang.description() +
      " is not a local language" +
      (require_exact ? " (IF-rewriting is unsound with fixed endpoints)"
                     : " and neither is its infix-free sublanguage"));
}

RoProductTables MustBuildTables(const Enfa& ro) {
  Result<RoProductTables> tables = BuildRoProductTables(ro);
  RPQRES_CHECK_MSG(tables.ok(), "automaton is not read-once");
  return *std::move(tables);
}

}  // namespace

ResilienceResult SolveLocalResilienceWithSplit(const RoProductTables& tables,
                                               const LetterSplit& split,
                                               const GraphDb& db,
                                               Semantics semantics,
                                               const LabelIndex& label_index,
                                               SolverScratch* scratch) {
  RPQRES_CHECK(static_cast<int64_t>(split.z.size()) == db.num_nodes());
  return SolveLocalProduct(tables, db, semantics, /*fixed_source=*/-1,
                           /*fixed_target=*/-1, label_index, &split, scratch);
}

ResilienceResult SolveLocalResilienceWithTables(const RoProductTables& tables,
                                                const GraphDb& db,
                                                Semantics semantics,
                                                const LabelIndex* label_index,
                                                SolverScratch* scratch) {
  std::optional<LabelIndex> built;
  return SolveLocalProduct(
      tables, db, semantics, /*fixed_source=*/-1, /*fixed_target=*/-1,
      label_index != nullptr ? *label_index : built.emplace(db),
      /*split=*/nullptr, scratch);
}

ResilienceResult SolveLocalResilienceWithRoEnfa(
    const Enfa& ro, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index, SolverScratch* scratch) {
  return SolveLocalResilienceWithTables(MustBuildTables(ro), db, semantics,
                                        label_index, scratch);
}

Result<ResilienceResult> SolveLocalResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const LabelIndex* label_index,
                                              SolverScratch* scratch) {
  RPQRES_ASSIGN_OR_RETURN(Enfa ro,
                          RoEnfaForSolver(lang, /*require_exact=*/false));
  return SolveLocalResilienceWithRoEnfa(ro, db, semantics, label_index,
                                        scratch);
}

ResilienceResult SolveLocalResilienceFixedEndpointsWithTables(
    const RoProductTables& tables, const GraphDb& db, NodeId source,
    NodeId target, Semantics semantics, const LabelIndex* label_index,
    SolverScratch* scratch) {
  std::optional<LabelIndex> built;
  return SolveLocalProduct(
      tables, db, semantics, source, target,
      label_index != nullptr ? *label_index : built.emplace(db),
      /*split=*/nullptr, scratch);
}

Result<ResilienceResult> SolveLocalResilienceFixedEndpoints(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics) {
  if (source < 0 || source >= db.num_nodes() || target < 0 ||
      target >= db.num_nodes()) {
    return Status::InvalidArgument(
        "fixed endpoints must be nodes of the database");
  }
  RPQRES_ASSIGN_OR_RETURN(Enfa ro,
                          RoEnfaForSolver(lang, /*require_exact=*/true));
  return SolveLocalResilienceFixedEndpointsWithTables(
      MustBuildTables(ro), db, source, target, semantics);
}

}  // namespace rpqres
