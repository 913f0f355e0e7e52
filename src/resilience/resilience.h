// rpqres — resilience/resilience: the public entry point.
//
// Every solve plans, then executes. PlanResilience works on the query's
// infix-free sublanguage IF(L) and builds the tables of one solver: the
// one kAuto picks,
//   local (Thm 3.13) → BCL (Prp 7.6) → one-dangling (Prp 7.9) →
//   exact branch & bound (exponential; the paper's NP-hard side),
// or the one the caller forces. ComputeResilienceWithPlan executes a plan
// on a database; ComputeResilience does both.

#ifndef RPQRES_RESILIENCE_RESILIENCE_H_
#define RPQRES_RESILIENCE_RESILIENCE_H_

#include <optional>

#include "automata/enfa.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "lang/language.h"
#include "resilience/bcl_resilience.h"
#include "resilience/exact.h"
#include "resilience/one_dangling_resilience.h"
#include "resilience/result.h"
#include "resilience/ro_tables.h"
#include "util/status.h"

namespace rpqres {

class SolverScratch;

/// Which algorithm to use.
enum class ResilienceMethod {
  kAuto,             ///< classify the language, pick the best solver
  kLocalFlow,        ///< Theorem 3.13 (requires IF(L) local)
  kBclFlow,          ///< Proposition 7.6 (requires IF(L) BCL)
  kOneDanglingFlow,  ///< Proposition 7.9 (requires IF(L) one-dangling)
  kExact,            ///< branch & bound (any regular L; exponential)
  kBruteForce,       ///< all subsets (tiny instances; for validation)
};

struct ResilienceOptions {
  ResilienceMethod method = ResilienceMethod::kAuto;
  /// With kAuto: whether falling back to the exponential exact solver is
  /// allowed when no polynomial algorithm applies (CheckExponentialFallback).
  /// A forced kExact always runs.
  bool allow_exponential = true;
  /// Forwarded whenever the exact branch & bound runs (kExact or the
  /// kAuto fallback): node budget plus cooperative cancellation.
  ExactOptions exact;
};

/// Computes RES(Q_L, D) under the given semantics, for any method:
/// PlanResilience(lang, options.method), then, for kAuto,
/// CheckExponentialFallback(plan, options.allow_exponential), then
/// ComputeResilienceWithPlan. One-shot callers pay the plan here; repeated
/// callers should plan once (or use the engine, which caches the plan).
/// See ResilienceResult for the contract on the returned witness
/// contingency set. `label_index` and `scratch` are forwarded to the
/// solvers as in ComputeResilienceWithPlan.
Result<ResilienceResult> ComputeResilience(
    const Language& lang, const GraphDb& db, Semantics semantics,
    const ResilienceOptions& options = {},
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

/// A solve's plan: the infix-free sublanguage plus one solver and its
/// tables, derived once from the query and reusable across any number of
/// databases. The engine's plan cache holds the kAuto plan; a forced
/// method is a plan too.
///
/// Invariant: PlanResilienceWithIF is the only code that builds a plan,
/// and it sets a flow method's tables exactly when the plan's method is
/// that flow method and the plan is not trivial: `ro_tables` for
/// kLocalFlow, `bcl_tables` for kBclFlow, `one_dangling_tables` for
/// kOneDanglingFlow. ComputeResilienceWithPlan relies on it and refuses a
/// flow plan without its tables as unexecutable, so a planned request does
/// no language work.
struct ResiliencePlan {
  /// The language handed to the solver — IF(L) (Q_L = Q_IF(L), Section 2).
  Language if_language;
  /// The solver kAuto selected for IF(L), or the forced one; never kAuto
  /// itself.
  ResilienceMethod method = ResilienceMethod::kExact;
  /// ε ∈ L: resilience is +∞ on every database; no solver runs.
  bool trivial_infinite = false;
  /// IF(L) = ∅: resilience is 0 on every database; no solver runs.
  bool trivial_empty = false;
  /// Solver-ready tables of IF(L)'s RO-εNFA (BuildRoEnfa, read off the
  /// minimal DFA) when method == kLocalFlow: letter transitions, ε-CSRs,
  /// per-state labels, initial/final bits and the sweeps' seed labels. Each ComputeResilienceWithPlan call skips straight
  /// to the Thm 3.13 product with zero per-solve automaton preprocessing.
  std::optional<RoProductTables> ro_tables;
  /// IF(L)'s forced and relevant labels, endpoint sides and oriented long
  /// words when method == kBclFlow (Prp 7.6).
  std::optional<BclTables> bcl_tables;
  /// IF(L)'s one-dangling decomposition, with B's RO-εNFA tables and the
  /// split letter and side, when method == kOneDanglingFlow (Prp 7.9).
  std::optional<OneDanglingTables> one_dangling_tables;
};

/// Plans `method` for `lang` on IF(L). kAuto picks local, then BCL, then
/// one-dangling, then the exact solver. A forced flow method builds only
/// its own tables, and fails with FailedPrecondition when IF(L) lies
/// outside its class; kExact and kBruteForce carry no tables. ε ∈ IF(L)
/// and IF(L) = ∅ give a trivial plan whatever the method. The planner
/// never refuses the exponential fallback: CheckExponentialFallback does,
/// where a kAuto plan executes.
Result<ResiliencePlan> PlanResilience(
    const Language& lang, ResilienceMethod method = ResilienceMethod::kAuto);

/// Like PlanResilience but takes the precomputed IF(L) — the entry point
/// of CompileQuery, of the engine's forced requests (on the compiled
/// IF(L)) and of ClassifyResilienceWithIF, whose Figure 1 verdict is read
/// off the kAuto plan (classify/classifier.h).
Result<ResiliencePlan> PlanResilienceWithIF(
    Language ifl, ResilienceMethod method = ResilienceMethod::kAuto);

/// The exponential-fallback policy, checked where a kAuto plan executes
/// (ComputeResilience and the engine): Unimplemented for a non-trivial
/// kExact plan when `allow` is false, OK otherwise.
Status CheckExponentialFallback(const ResiliencePlan& plan, bool allow);

/// Computes RES(Q_L, D) by executing a precompiled plan. Equivalent to
/// ComputeResilience(lang, db, semantics) with the plan's method, minus
/// all per-query work (parse, determinize, IF, classification, RO-εNFA
/// construction, chain analysis, one-dangling decomposition).
/// `exact_options` only applies when the plan routes to the exact solver
/// (adversarial instances can make the branch & bound explode; callers
/// like the differential oracle bound it and treat OutOfRange as an
/// inconclusive budget exhaustion, not an answer). `label_index` must be
/// built from `db`; the flow solvers and the exact branch & bound read
/// every fact through it, and when it is null the solver builds
/// LabelIndex(db) once for the call (the DbRegistry snapshot hot path
/// passes the snapshot's index, built at Register time). `scratch`, when
/// given, supplies the reusable flow
/// solver arena (flow/solver_scratch.h); the flow solvers otherwise fall
/// back to the calling thread's shared scratch, so repeated calls are
/// allocation-free in steady state either way.
Result<ResilienceResult> ComputeResilienceWithPlan(
    const ResiliencePlan& plan, const GraphDb& db, Semantics semantics,
    const ExactOptions& exact_options = {},
    const LabelIndex* label_index = nullptr, SolverScratch* scratch = nullptr);

/// Decision variant (Section 2 problem statement): RES(Q_L, D) <= k?
Result<bool> ResilienceAtMost(const Language& lang, const GraphDb& db,
                              Semantics semantics, Capacity k,
                              const ResilienceOptions& options = {});

/// Validates a result against the database: the contingency set's cost
/// equals `value`, its removal falsifies Q_L, and `infinite` matches ε ∈ L.
/// (Optimality is NOT checked — use a second solver for that.)
Status VerifyResilienceResult(const Language& lang, const GraphDb& db,
                              Semantics semantics,
                              const ResilienceResult& result);

/// Endpoint-pinned variant: the contingency must remove every L-walk from
/// `source` to `target` (the non-Boolean Thm 3.13 extension). Powers the
/// differential second opinion for fixed-endpoint requests.
Status VerifyResilienceResultBetween(const Language& lang, const GraphDb& db,
                                     NodeId source, NodeId target,
                                     Semantics semantics,
                                     const ResilienceResult& result);

}  // namespace rpqres

#endif  // RPQRES_RESILIENCE_RESILIENCE_H_
