// rpqres — resilience/local_resilience: Theorem 3.13.
//
// RES_bag(L) for local L, via the RO-εNFA × database product network and
// one MinCut: each fact of D contributes exactly one finite-capacity edge
// (read-once!), all structural edges are infinite, so minimum cuts are
// exactly minimum contingency sets. Runs in Õ(|A|·|D|·|Σ|) plus the MinCut.
//
// The same sweep serves Prp 7.9 (resilience/one_dangling_resilience.h):
// with a LetterSplit, the facts of one letter pass through per-node middle
// vertices whose z-edges carry signed per-node costs, which is the
// rewritten database D′ of the proof emitted straight from D's index.

#ifndef RPQRES_RESILIENCE_LOCAL_RESILIENCE_H_
#define RPQRES_RESILIENCE_LOCAL_RESILIENCE_H_

#include <span>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "resilience/ro_tables.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// Core of Theorem 3.13: resilience from the tables of an RO-εNFA for a
/// local language (BuildRoProductTables), precomputed once per automaton —
/// the planner stores IF(L)'s in ResiliencePlan::ro_tables, so a solve
/// does no automaton preprocessing. Both the product-pruning sweep and the
/// network construction read the facts through `label_index`, which must
/// be built from `db`, so they visit only facts whose label the automaton
/// reads. When it is null the call builds LabelIndex(db) once; the
/// registered-database hot path passes the snapshot's index. `scratch`
/// (optional) supplies the reusable solver arena; the calling thread's
/// shared scratch is used when absent.
ResilienceResult SolveLocalResilienceWithTables(
    const RoProductTables& tables, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

/// Prp 7.9's letter split. Every fact of `letter` passes through one
/// middle vertex at its split-side node v: its target when `at_target`,
/// its source otherwise. The middle vertex joins the product vertex at v
/// (the letter's to-state when `at_target`, its from-state otherwise) by
/// one finite *z-edge* of capacity z[v]. A node with z[v] <= 0 gets no
/// middle vertex, and its split facts are left out of the network.
struct LetterSplit {
  char letter = '\0';
  bool at_target = true;
  /// One z-edge capacity per node of the database.
  std::span<const Capacity> z;
};

/// The Thm 3.13 product of `tables` and `db` with `split` applied; the
/// core of SolveOneDanglingWithTables. The contingency holds the cut
/// facts only; afterwards scratch->z_cut[v] is 1 iff v's z-edge is in the
/// minimum cut. `scratch` as for SolveLocalResilienceWithTables.
ResilienceResult SolveLocalResilienceWithSplit(const RoProductTables& tables,
                                               const LetterSplit& split,
                                               const GraphDb& db,
                                               Semantics semantics,
                                               const LabelIndex& label_index,
                                               SolverScratch* scratch);

/// **Extension beyond the paper** (its Section 8 lists the non-Boolean
/// setting as future work): resilience with *fixed endpoints* — the
/// minimum cost to remove every L-walk from `source` to `target`. For
/// local languages the Thm 3.13 product construction carries over
/// unchanged because its cut↔contingency-set correspondence never uses
/// where walks start or end: the network simply hooks t_source/t_target
/// only at (source, initial) / (target, final) product vertices.
/// (For non-local languages the problem relates to length-bounded cuts
/// and is open; this entry point requires IF(L) local.)
Result<ResilienceResult> SolveLocalResilienceFixedEndpoints(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics);

/// Fixed-endpoint core given tables precompiled from the *original*
/// language's RO-εNFA (IF-rewriting is unsound with fixed endpoints, so
/// callers — the engine's request path — must build the automaton from L
/// itself, e.g. CompiledQuery::ro_tables_exact). Endpoints must be valid
/// node ids.
ResilienceResult SolveLocalResilienceFixedEndpointsWithTables(
    const RoProductTables& tables, const GraphDb& db, NodeId source,
    NodeId target, Semantics semantics, const LabelIndex* label_index = nullptr,
    SolverScratch* scratch = nullptr);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_LOCAL_RESILIENCE_H_
