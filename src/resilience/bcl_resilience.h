// rpqres — resilience/bcl_resilience: Proposition 7.6.
//
// RES_bag(L) for bipartite chain languages, by a flow network with one
// start/end vertex pair per fact: forward words are wired left-to-right
// and reversed words right-to-left according to the bipartition of the
// endpoint graph, so that every match is a source-target path and every
// source-target path is a match. Runs in Õ(|A|·|D|²·|Σ|²).

#ifndef RPQRES_RESILIENCE_BCL_RESILIENCE_H_
#define RPQRES_RESILIENCE_BCL_RESILIENCE_H_

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// Solves RES(Q_L, D) for a language whose infix-free sublanguage is a
/// bipartite chain language; FailedPrecondition otherwise. Every fact
/// visit goes through `label_index` (built from `db`), restricted to the
/// labels the chain words use; when it is null the call builds
/// LabelIndex(db) once. `scratch` (optional) supplies the reusable solver
/// arena, defaulting to the calling thread's shared scratch.
Result<ResilienceResult> SolveBclResilience(
    const Language& lang, const GraphDb& db, Semantics semantics,
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_BCL_RESILIENCE_H_
