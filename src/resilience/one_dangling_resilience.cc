#include "resilience/one_dangling_resilience.h"

#include <algorithm>
#include <optional>
#include <string>

#include "flow/solver_scratch.h"
#include "lang/infix_free.h"
#include "lang/one_dangling.h"
#include "lang/ro_enfa.h"
#include "obs/trace.h"
#include "resilience/local_resilience.h"
#include "util/check.h"

namespace rpqres {

namespace {

constexpr const char* kAlgorithm = "one-dangling flow (Prp 7.9)";

}  // namespace

Result<OneDanglingTables> BuildOneDanglingTables(const Language& ifl) {
  std::optional<OneDanglingDecomposition> decomposition =
      FindOneDanglingDecomposition(ifl);
  if (!decomposition) {
    return Status::FailedPrecondition("is not one-dangling");
  }
  OneDanglingTables tables;
  tables.decomposition = "L = " + decomposition->base.description() + " ∪ {" +
                         decomposition->x + decomposition->y + "}";
  RPQRES_ASSIGN_OR_RETURN(Enfa ro, BuildRoEnfa(decomposition->base));
  RPQRES_ASSIGN_OR_RETURN(tables.base, BuildRoProductTables(ro));
  // L = B ∪ {pq}: split p at its target when q is fresh, else q at its
  // source.
  const bool q_fresh = !decomposition->y_in_base;
  tables.split_at_target = q_fresh;
  tables.split = q_fresh ? decomposition->x : decomposition->y;
  tables.fresh = q_fresh ? decomposition->y : decomposition->x;
  return tables;
}

Result<ResilienceResult> SolveOneDanglingWithTables(
    const OneDanglingTables& tables, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index, SolverScratch* scratch) {
  if (scratch == nullptr) scratch = &SolverScratch::ThreadLocal();
  std::optional<LabelIndex> built;
  const LabelIndex& index =
      label_index != nullptr ? *label_index : built.emplace(db);
  const bool at_target = tables.split_at_target;

  // z(v) = split-letter cost at v − fresh-letter cost at v, on the split
  // side: p into v and q out of v when splitting at targets, q out of v
  // and p into v when splitting at sources. κ = total fresh-letter cost.
  // The pass stages the z-edge capacities, so it is flow build; its span
  // ends before the local solver opens its own.
  obs::ScopedSpan build_span(scratch->trace, obs::SpanKind::kFlowBuild);
  auto& z = scratch->split_z;
  z.assign(db.num_nodes(), 0);
  Capacity kappa = 0;
  for (char label : {tables.split, tables.fresh}) {
    const bool is_split = label == tables.split;
    for (FactId f : index.Facts(label)) {
      if (db.IsExogenous(f)) {
        return Status::Unimplemented(
            "one-dangling resilience: exogenous facts labeled by the "
            "dangling word's letters are not supported (the κ/z "
            "accounting is arithmetic)");
      }
      const Fact& fact = db.fact(f);
      const Capacity cost = db.Cost(f, semantics);
      if (is_split) {
        z[at_target ? fact.target : fact.source] += cost;
      } else {
        z[at_target ? fact.source : fact.target] -= cost;
        kappa += cost;
      }
    }
  }
  // Non-positive z-edges are removed for free (Claim 7.10).
  Capacity free_cost = 0;
  for (Capacity zv : z) free_cost += std::min<Capacity>(0, zv);
  build_span.End();

  ResilienceResult result = SolveLocalResilienceWithSplit(
      tables.base, LetterSplit{tables.split, at_target, z}, db, semantics,
      index, scratch);
  result.algorithm = kAlgorithm;
  if (result.infinite) {
    // A base-language walk made of exogenous facts only: the query cannot
    // be falsified.
    return result;
  }
  result.value += free_cost + kappa;

  obs::ScopedSpan cut_span(scratch->trace, obs::SpanKind::kCutExtract);
  // Witness (Claim 7.10 (ii)). The contingency already holds the cut
  // facts; per node v with its z-edge cut or absent (z(v) <= 0), add every
  // split fact at v (case (a)); otherwise every fresh fact at v (case (b)),
  // whose cut split facts are already in.
  const std::vector<uint8_t>& z_cut = scratch->z_cut;
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    const bool take_split = z[v] <= 0 || z_cut[v] != 0;
    const char label = take_split ? tables.split : tables.fresh;
    const bool facts_into = take_split == at_target;
    for (FactId f : facts_into ? index.FactsInto(label, v)
                               : index.FactsFrom(label, v)) {
      result.contingency.push_back(f);
    }
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  result.contingency.erase(
      std::unique(result.contingency.begin(), result.contingency.end()),
      result.contingency.end());

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
  Language ifl = InfixFreeSublanguage(lang);
  if (ifl.ContainsEpsilon()) {
    ResilienceResult result;
    result.infinite = true;
    result.algorithm = kAlgorithm;
    return result;
  }
  Result<OneDanglingTables> tables = BuildOneDanglingTables(ifl);
  if (!tables.ok()) {
    return Status::FailedPrecondition("SolveOneDanglingResilience: IF(" +
                                      lang.description() + ") " +
                                      tables.status().message());
  }
  return SolveOneDanglingWithTables(*tables, db, semantics, label_index,
                                    scratch);
}

}  // namespace rpqres
