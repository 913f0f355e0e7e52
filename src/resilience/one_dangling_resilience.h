// rpqres — resilience/one_dangling_resilience: Proposition 7.9.
//
// RES_bag(L ∪ {xy}) for a one-dangling language (L local, y fresh — the
// x-fresh case is handled through the mirror reduction of Prp 6.3):
//  1. rewrite the language: every x becomes xz for a fresh letter z
//     (L' stays local, by an RO-εNFA edit);
//  2. rewrite the database: per node v, route x-edges through a new node
//     (v,in), add a z-edge (v,in) -> v with *signed* multiplicity
//     Σmult(x into v) − Σmult(y out of v), and erase y-edges;
//  3. RES_bag(L ∪ {xy}, D) = RES_ex_bag(L', D') + κ with κ the total
//     y-multiplicity, where the extended bag semantics removes non-positive
//     facts for free (Claim 7.10).
// The witness contingency set is mapped back to D following the proof.

#ifndef RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_
#define RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "lang/one_dangling.h"
#include "resilience/result.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// Solves RES(Q_L, D) for a language whose infix-free sublanguage is
/// one-dangling, directly or after mirroring (Prp 6.3). FailedPrecondition
/// if no decomposition exists. `label_index` (built from `db`) serves the
/// x/y fact scans and the witness mapping on the direct path; when it is
/// null, and for mirrored or compacted inputs it does not describe, the
/// core builds an index of the database it solves. `scratch` (optional)
/// backs the inner local flow solve on the rewritten database.
Result<ResilienceResult> SolveOneDanglingResilience(
    const Language& lang, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

/// Core of Prp 7.9 for an explicit decomposition base ∪ {xy}. Requires
/// y ∉ Σ(base) (callers mirror first when only x is fresh). `label_index`
/// must be built from `db`; when it is null the call builds
/// LabelIndex(db) once. The rewritten database gets its own index.
Result<ResilienceResult> SolveOneDanglingCore(
    const OneDanglingDecomposition& decomposition, const GraphDb& db,
    Semantics semantics, const LabelIndex* label_index = nullptr,
    SolverScratch* scratch = nullptr);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_ONE_DANGLING_RESILIENCE_H_
