#include "resilience/one_dangling_resilience.h"

#include <algorithm>
#include <optional>

#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "resilience/local_resilience.h"
#include "util/check.h"

namespace rpqres {
namespace {

// Picks a printable letter absent from `used` ∪ {x, y} ∪ db labels.
char PickFreshLetter(const Language& base, char x, char y,
                     const LabelIndex& index) {
  std::vector<bool> taken(256, false);
  for (char c : base.used_letters()) taken[static_cast<unsigned char>(c)] = true;
  for (char c : index.labels()) taken[static_cast<unsigned char>(c)] = true;
  taken[static_cast<unsigned char>(x)] = true;
  taken[static_cast<unsigned char>(y)] = true;
  const std::string candidates =
      "zwvutsrqponmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA0123456789";
  for (char c : candidates) {
    if (!taken[static_cast<unsigned char>(c)]) return c;
  }
  RPQRES_CHECK_MSG(false, "no fresh letter available");
  return '\0';
}

// Replaces the unique x-transition (s, x, t) of an RO-εNFA by
// (s, x, s') (s', z, t); the identity when there is no x-transition.
Enfa RewriteXtoXZ(const Enfa& ro, char x, char z) {
  Enfa out;
  out.AddStates(ro.num_states());
  for (int s : ro.initial_states()) out.AddInitial(s);
  for (int s : ro.final_states()) out.AddFinal(s);
  for (const EnfaTransition& t : ro.transitions()) {
    if (t.symbol == x) {
      int mid = out.AddState();
      out.AddTransition(t.from, x, mid);
      out.AddTransition(mid, z, t.to);
    } else {
      out.AddTransition(t.from, t.symbol, t.to);
    }
  }
  return out;
}

}  // namespace

Result<ResilienceResult> SolveOneDanglingCore(
    const OneDanglingDecomposition& decomposition, const GraphDb& db,
    Semantics semantics, const LabelIndex* label_index,
    SolverScratch* scratch) {
  const Language& base = decomposition.base;
  const char x = decomposition.x;
  const char y = decomposition.y;
  RPQRES_CHECK_MSG(!decomposition.y_in_base,
                   "SolveOneDanglingCore requires y fresh; mirror first");

  ResilienceResult result;
  result.algorithm = "one-dangling flow (Prp 7.9)";
  if (base.ContainsEpsilon()) {
    result.infinite = true;
    return result;
  }
  std::optional<LabelIndex> built;
  const LabelIndex& index =
      label_index != nullptr ? *label_index : built.emplace(db);
  // The signed-multiplicity rewrite of Prp 7.9 manipulates x/y costs
  // arithmetically, which has no meaningful extension to +∞ costs.
  bool exogenous_xy = false;
  for (char label : {x, y}) {
    for (FactId f : index.Facts(label)) exogenous_xy |= db.IsExogenous(f);
  }
  if (exogenous_xy) {
    return Status::Unimplemented(
        "SolveOneDanglingCore: exogenous x/y-labeled facts are not "
        "supported (the κ/z-multiplicity accounting is arithmetic)");
  }

  RPQRES_ASSIGN_OR_RETURN(Enfa ro_base, BuildRoEnfa(base));
  char z = PickFreshLetter(base, x, y, index);
  Enfa ro_rewritten = RewriteXtoXZ(ro_base, x, z);
  RPQRES_CHECK(IsRoEnfa(ro_rewritten));

  // --- Database rewrite D -> D' ---------------------------------------------
  // Per original node v: Xin(v) = total cost of x-facts into v, Yout(v) =
  // total cost of y-facts out of v. κ = Σ_v Yout(v); z-multiplicity of v is
  // Xin(v) − Yout(v); non-positive z-facts are removed for free, which
  // contributes free_cost = Σ_v min(0, Xin(v) − Yout(v)).
  std::vector<Capacity> x_in(db.num_nodes(), 0), y_out(db.num_nodes(), 0);
  Capacity kappa = 0;
  for (FactId f : index.Facts(x)) {
    x_in[db.fact(f).target] += db.Cost(f, semantics);
  }
  for (FactId f : index.Facts(y)) {
    y_out[db.fact(f).source] += db.Cost(f, semantics);
    kappa += db.Cost(f, semantics);
  }
  Capacity free_cost = 0;
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    free_cost += std::min<Capacity>(0, x_in[v] - y_out[v]);
  }

  GraphDb rewritten;
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    rewritten.AddNode(db.node_name(v));
  }
  // (v, in) nodes, for nodes with incoming x-facts.
  std::vector<NodeId> in_node(db.num_nodes(), -1);
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    if (x_in[v] > 0) {
      in_node[v] = rewritten.AddNode("(" + db.node_name(v) + ",in)");
    }
  }
  // Facts: x redirected into (v,in); y erased; everything else copied.
  std::vector<FactId> original_of;  // rewritten fact id -> original fact id
  auto add_mapped = [&](NodeId s, char label, NodeId t, FactId original) {
    // Exogenous base facts keep their flag (cost +∞); x/y facts were
    // checked endogenous above, so Cost is finite here.
    bool exogenous = db.IsExogenous(original);
    FactId id = rewritten.AddFact(
        s, label, t, exogenous ? 1 : db.Cost(original, semantics));
    RPQRES_CHECK_MSG(id == static_cast<FactId>(original_of.size()),
                     "unexpected fact merge in rewritten database");
    if (exogenous) rewritten.SetExogenous(id);
    original_of.push_back(original);
  };
  for (FactId f = 0; f < db.num_facts(); ++f) {
    const Fact& fact = db.fact(f);
    if (fact.label == y) continue;
    if (fact.label == x) {
      add_mapped(fact.source, x, in_node[fact.target], f);
    } else {
      add_mapped(fact.source, fact.label, fact.target, f);
    }
  }
  // Positive z-facts (v,in) -z-> v; non-positive ones are removed for free
  // (their cost is already in free_cost), which also severs the rewritten
  // x-facts into (v,in) from any L'-walk — matching case (a) of Claim 7.10
  // where all x-facts into v join the contingency set.
  std::vector<FactId> z_fact_of(db.num_nodes(), -1);
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    if (in_node[v] < 0) continue;
    Capacity z_mult = x_in[v] - y_out[v];
    if (z_mult > 0) {
      FactId id = rewritten.AddFact(in_node[v], z, v, z_mult);
      z_fact_of[v] = id;
    }
  }

  // --- Solve the local instance and combine --------------------------------
  // The rewritten multiplicities already encode costs, so solve in bag
  // semantics regardless of the original semantics.
  const LabelIndex rewritten_index(rewritten);
  ResilienceResult local = SolveLocalResilienceWithRoEnfa(
      ro_rewritten, rewritten, Semantics::kBag, &rewritten_index, scratch);
  if (local.infinite) {
    // A base-language walk made of exogenous facts only (ε ∉ base was
    // checked above): the query cannot be falsified.
    result.infinite = true;
    return result;
  }
  result.value = local.value + free_cost + kappa;
  result.network_vertices = local.network_vertices;
  result.network_edges = local.network_edges;
  result.product_vertices_pruned = local.product_vertices_pruned;
  result.product_edges_pruned = local.product_edges_pruned;

  // --- Witness mapping (Claim 7.10 (ii)) ------------------------------------
  std::vector<bool> cut(rewritten.num_facts(), false);
  for (FactId f : local.contingency) cut[f] = true;

  std::vector<FactId> contingency;
  // Non-x/z cut facts map straight back.
  for (FactId f = 0; f < rewritten.num_facts(); ++f) {
    if (!cut[f]) continue;
    char label = rewritten.fact(f).label;
    if (label == z || label == x) continue;
    contingency.push_back(original_of[f]);
  }
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    bool z_removed;
    if (in_node[v] < 0) {
      // No x-facts into v: nothing to cut for the xy-pairs at v (and y is
      // fresh, so y-facts appear in no other matches).
      continue;
    } else if (z_fact_of[v] < 0) {
      z_removed = true;  // removed for free (non-positive multiplicity)
    } else {
      z_removed = cut[z_fact_of[v]];
    }
    if (z_removed) {
      // Case (a): take every x-fact into v.
      for (FactId f : index.FactsInto(x, v)) contingency.push_back(f);
    } else {
      // Case (b): take every y-fact out of v, plus the cut x-facts into v.
      for (FactId f : index.FactsFrom(y, v)) contingency.push_back(f);
      for (FactId f : rewritten_index.FactsInto(x, in_node[v])) {
        if (cut[f]) contingency.push_back(original_of[f]);
      }
    }
  }
  std::sort(contingency.begin(), contingency.end());
  contingency.erase(std::unique(contingency.begin(), contingency.end()),
                    contingency.end());
  result.contingency = std::move(contingency);

#ifndef NDEBUG
  Capacity witness_cost = 0;
  for (FactId f : result.contingency) witness_cost += db.Cost(f, semantics);
  RPQRES_CHECK(witness_cost == result.value);
#endif
  return result;
}

Result<ResilienceResult> SolveOneDanglingResilience(
    const Language& lang, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index, SolverScratch* scratch) {
  if (db.is_versioned()) {
    // The κ/z rewrite and the mirror both re-derive databases fact-by-fact
    // and lean on id-preserving copies; run them on the flat
    // materialization and translate the witness back into the overlay's
    // id space (Compact preserves live-fact order).
    std::vector<FactId> old_id_of;
    GraphDb flat = db.Compact(&old_id_of);
    RPQRES_ASSIGN_OR_RETURN(
        ResilienceResult result,
        SolveOneDanglingResilience(lang, flat, semantics,
                                   /*label_index=*/nullptr, scratch));
    for (FactId& f : result.contingency) f = old_id_of[f];
    return result;
  }
  Language ifl = InfixFreeSublanguage(lang);
  ResilienceResult result;
  if (ifl.ContainsEpsilon()) {
    result.infinite = true;
    result.algorithm = "one-dangling flow (Prp 7.9)";
    return result;
  }

  // Try the direct decomposition, then the mirrored one (Prp 6.3).
  for (bool mirrored : {false, true}) {
    Language candidate = mirrored ? ifl.Mirror() : ifl;
    std::optional<OneDanglingDecomposition> decomposition =
        FindOneDanglingDecomposition(candidate);
    if (!decomposition) continue;
    std::optional<GraphDb> mirror;
    const GraphDb& oriented = mirrored ? mirror.emplace(db.MirrorDb()) : db;
    if (decomposition->y_in_base) {
      // Only x is fresh: mirror once more so the fresh letter trails.
      // mirror(base ∪ {xy}) = mirror(base) ∪ {yx}.
      OneDanglingDecomposition flipped{
          decomposition->y, decomposition->x, decomposition->base.Mirror(),
          decomposition->y_in_base, decomposition->x_in_base};
      // Doubly-mirrored database: the caller's index does not describe
      // it, so the core builds one.
      RPQRES_ASSIGN_OR_RETURN(
          ResilienceResult r,
          SolveOneDanglingCore(flipped, oriented.MirrorDb(), semantics,
                               /*label_index=*/nullptr, scratch));
      // MirrorDb preserves fact ids, so the witness maps back unchanged.
      if (mirrored) r.algorithm += " [mirrored]";
      return r;
    }
    RPQRES_ASSIGN_OR_RETURN(
        ResilienceResult r,
        SolveOneDanglingCore(*decomposition, oriented, semantics,
                             mirrored ? nullptr : label_index, scratch));
    if (mirrored) r.algorithm += " [mirrored]";
    return r;
  }
  return Status::FailedPrecondition(
      "SolveOneDanglingResilience: IF(" + lang.description() +
      ") is not one-dangling (nor is its mirror)");
}

}  // namespace rpqres
