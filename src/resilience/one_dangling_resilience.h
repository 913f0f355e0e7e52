// rpqres — resilience/one_dangling_resilience: Proposition 7.9.
//
// RES_bag(B ∪ {pq}) for a one-dangling language: B local, p ≠ q, and p or
// q outside B's alphabet. The proof rewrites the database: every p-fact
// into a node v is routed through a new node (v,in), a z-fact
// (v,in) -z-> v gets the *signed* multiplicity Σcost(p into v) −
// Σcost(q out of v), and the q-facts are erased. Then, with κ the total
// q-cost and non-positive facts removed for free (Claim 7.10),
// RES(B ∪ {pq}, D) = RES(B[p ↦ pz], D′) + κ.
//
// The solver never builds D′. Every step on the language side — IF(L),
// the decomposition, B's RO-εNFA tables — is fixed once L is, so
// BuildOneDanglingTables does it at plan time, and a solve emits D′'s
// product network straight from D's LabelIndex (LetterSplit in
// local_resilience.h): each p-fact passes through one middle vertex at
// its target v, and that vertex's z-edge has capacity z(v) = Σcost(p into
// v) − Σcost(q out of v). A node with z(v) <= 0 gets no z-edge, and its
// p-facts are left out, as D′ drops its non-positive z-facts. The value is
// cut + Σ_v min(0, z(v)) + κ.
//
// When only p is fresh, the tables split q instead, at each q-fact's
// source: the mirror of the construction above (Prp 6.3), mapped back onto
// D, so nothing is mirrored at solve time either.
//
// The witness follows Claim 7.10: at a node v whose z-edge is cut or
// absent, every split-letter fact at v; otherwise every fresh-letter fact
// at v plus the cut split facts; plus every other cut fact.

#ifndef RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_
#define RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_

#include <string>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "resilience/ro_tables.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// One decomposition IF(L) = B ∪ {pq}, resolved at plan time.
struct OneDanglingTables {
  /// The tables of B's RO-εNFA.
  RoProductTables base;
  /// The letter routed through middle vertices: p when q is fresh (the
  /// paper's case), q when only p is fresh (the mirror case).
  char split = '\0';
  /// The other letter of pq, which B does not use.
  char fresh = '\0';
  /// True when split facts are split at their target (p, q fresh); false
  /// when split at their source (q, p fresh).
  bool split_at_target = true;
  /// The decomposition found, as the Figure 1 verdict reports it:
  /// "L = B ∪ {pq}".
  std::string decomposition;
};

/// Derives the tables from an infix-free language without ε (IF(L) of the
/// query); FailedPrecondition when it is not one-dangling.
Result<OneDanglingTables> BuildOneDanglingTables(const Language& ifl);

/// Solves RES(Q_L, D) from tables built for IF(L). `label_index` (built
/// from `db`) serves every fact visit and the witness, so witness fact ids
/// are in `db`'s id space, overlays included; when it is null the call
/// builds LabelIndex(db) once. `scratch` (optional) supplies the reusable
/// solver arena. Unimplemented when a p- or q-fact is exogenous: the
/// κ/z accounting is arithmetic and has no extension to +∞ costs.
Result<ResilienceResult> SolveOneDanglingWithTables(
    const OneDanglingTables& tables, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_
