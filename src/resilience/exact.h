// rpqres — resilience/exact: exact (exponential-time) resilience solvers.
//
// These are the ground truth against which the polynomial flow-based
// solvers are validated, and the baseline on the NP-hard side of the
// dichotomy:
//  * SolveExactResilience — branch & bound on witness matches: any
//    contingency set must hit the facts of a shortest L-walk, so branching
//    on which fact of that walk to delete is complete. Works for arbitrary
//    regular languages, set and bag semantics.
//  * SolveBruteForceResilience — enumeration of all fact subsets; only for
//    tiny instances, used to validate the branch & bound itself.

#ifndef RPQRES_RESILIENCE_EXACT_H_
#define RPQRES_RESILIENCE_EXACT_H_

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/result.h"
#include "util/cancel.h"
#include "util/status.h"

namespace rpqres {

/// Tuning knobs for the exact solver.
struct ExactOptions {
  /// Hard cap on branch-and-bound nodes; OutOfRange when exceeded.
  uint64_t max_search_nodes = 50'000'000;
  /// Borrowed cooperative stop signal, polled every few hundred search
  /// nodes next to the node-budget check; the solver returns the token's
  /// status (DeadlineExceeded / Cancelled) when it fires. nullptr = never
  /// stops early. Must outlive the solve.
  const CancelToken* cancel = nullptr;
};

/// Exact resilience for an arbitrary regular language (exponential time).
/// Derives IF(L), then runs SolveExactInfixFree.
Result<ResilienceResult> SolveExactResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const ExactOptions& options = {});

/// The branch & bound itself, on an infix-free language `ifl` (IF(L) of
/// the query, as a ResiliencePlan holds it) over `db`. `label_index` is
/// an index of `db`; nullptr means build one here. The plan path passes
/// the plan's language and the snapshot's index, so a request does no
/// language work.
Result<ResilienceResult> SolveExactInfixFree(const Language& ifl,
                                             const GraphDb& db,
                                             Semantics semantics,
                                             const ExactOptions& options,
                                             const LabelIndex* label_index);

/// All-subsets brute force; requires db.num_facts() <= max_facts (<= 24).
Result<ResilienceResult> SolveBruteForceResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics,
                                                   int max_facts = 20);

/// Fixed-endpoint all-subsets brute force (ground truth for the
/// non-Boolean extension of SolveLocalResilienceFixedEndpoints).
Result<ResilienceResult> SolveBruteForceResilienceBetween(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics, int max_facts = 20);

/// Exact resilience via the hypergraph of matches (Def 4.7): enumerate
/// matches, condense with the Section 4.3 rules (set semantics only —
/// they preserve minimum *cardinality*), and solve a minimum(-weight)
/// hitting set. Works for finite languages, or infinite languages over
/// acyclic databases; this is the hitting-set view the paper uses
/// throughout its hardness proofs, and doubles as an independent
/// cross-check of the walk-based branch & bound.
Result<ResilienceResult> SolveHittingSetResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_EXACT_H_
