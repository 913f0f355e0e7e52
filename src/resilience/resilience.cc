#include "resilience/resilience.h"

#include <string>
#include <utility>

#include "flow/solver_scratch.h"
#include "graphdb/rpq_eval.h"
#include "lang/infix_free.h"
#include "lang/ro_enfa.h"
#include "obs/trace.h"
#include "resilience/bcl_resilience.h"
#include "resilience/exact.h"
#include "resilience/local_resilience.h"
#include "resilience/one_dangling_resilience.h"

namespace rpqres {

namespace {

// ResilienceMethod's enumerators, in declaration order (for messages).
constexpr const char* kMethodNames[] = {
    "kAuto", "kLocalFlow", "kBclFlow", "kOneDanglingFlow", "kExact",
    "kBruteForce"};

// Sets `method` on the plan with the tables it executes from, built for
// the plan's IF(L). Each builder runs its class's analysis once and keeps
// the result; an error (a predicate on IF(L), such as "is not local")
// means IF(L) lies outside the method's class.
Status BuildTables(ResilienceMethod method, ResiliencePlan* plan) {
  const Language& ifl = plan->if_language;
  if (method == ResilienceMethod::kLocalFlow) {
    // BuildRoEnfa succeeds exactly on local languages.
    Result<Enfa> ro = BuildRoEnfa(ifl);
    if (!ro.ok()) return Status::FailedPrecondition("is not local");
    RPQRES_ASSIGN_OR_RETURN(plan->ro_tables, BuildRoProductTables(*ro));
  } else if (method == ResilienceMethod::kBclFlow) {
    RPQRES_ASSIGN_OR_RETURN(plan->bcl_tables, BuildBclTables(ifl));
  } else if (method == ResilienceMethod::kOneDanglingFlow) {
    RPQRES_ASSIGN_OR_RETURN(plan->one_dangling_tables,
                            BuildOneDanglingTables(ifl));
  }
  plan->method = method;
  return Status::OK();
}

}  // namespace

Result<ResiliencePlan> PlanResilience(const Language& lang,
                                      ResilienceMethod method) {
  return PlanResilienceWithIF(InfixFreeSublanguage(lang), method);
}

Result<ResiliencePlan> PlanResilienceWithIF(Language ifl,
                                            ResilienceMethod method) {
  ResiliencePlan plan{std::move(ifl),
                      method == ResilienceMethod::kAuto
                          ? ResilienceMethod::kExact
                          : method,
                      /*trivial_infinite=*/false,
                      /*trivial_empty=*/false,
                      /*ro_tables=*/std::nullopt,
                      /*bcl_tables=*/std::nullopt,
                      /*one_dangling_tables=*/std::nullopt};
  if (plan.if_language.ContainsEpsilon()) {
    plan.trivial_infinite = true;
    return plan;
  }
  if (plan.if_language.IsEmpty()) {
    plan.trivial_empty = true;
    return plan;
  }
  if (method != ResilienceMethod::kAuto) {
    if (Status built = BuildTables(method, &plan); !built.ok()) {
      return Status::FailedPrecondition(
          std::string("forced ") + kMethodNames[static_cast<size_t>(method)] +
          ": " + plan.if_language.description() + " " + built.message());
    }
    return plan;
  }
  for (ResilienceMethod flow :
       {ResilienceMethod::kLocalFlow, ResilienceMethod::kBclFlow,
        ResilienceMethod::kOneDanglingFlow}) {
    if (BuildTables(flow, &plan).ok()) return plan;
  }
  return plan;  // kExact: no polynomial algorithm applies
}

Status CheckExponentialFallback(const ResiliencePlan& plan, bool allow) {
  if (allow || plan.method != ResilienceMethod::kExact ||
      plan.trivial_infinite || plan.trivial_empty) {
    return Status::OK();
  }
  return Status::Unimplemented("no polynomial-time algorithm known for " +
                               plan.if_language.description() +
                               " and exponential fallback disabled");
}

Result<ResilienceResult> ComputeResilienceWithPlan(
    const ResiliencePlan& plan, const GraphDb& db, Semantics semantics,
    const ExactOptions& exact_options, const LabelIndex* label_index,
    SolverScratch* scratch) {
  if (plan.trivial_infinite) {
    ResilienceResult result;
    result.infinite = true;
    result.algorithm = "trivial (ε ∈ L)";
    return result;
  }
  if (plan.trivial_empty) {
    ResilienceResult result;
    result.algorithm = "trivial (L = ∅)";
    return result;
  }
  switch (plan.method) {
    case ResilienceMethod::kLocalFlow:
      if (!plan.ro_tables.has_value()) break;  // see ResiliencePlan
      return SolveLocalResilienceWithTables(*plan.ro_tables, db, semantics,
                                            label_index, scratch);
    case ResilienceMethod::kBclFlow:
      if (!plan.bcl_tables.has_value()) break;  // see ResiliencePlan
      return SolveBclWithTables(*plan.bcl_tables, db, semantics, label_index,
                                scratch);
    case ResilienceMethod::kOneDanglingFlow:
      if (!plan.one_dangling_tables.has_value()) break;  // see ResiliencePlan
      return SolveOneDanglingWithTables(*plan.one_dangling_tables, db,
                                        semantics, label_index, scratch);
    case ResilienceMethod::kExact: {
      // The branch & bound does not take a scratch; bracket it here so
      // the trace still attributes the (potentially exponential) time.
      obs::ScopedSpan span(scratch != nullptr ? scratch->trace : nullptr,
                           obs::SpanKind::kExactSearch);
      return SolveExactInfixFree(plan.if_language, db, semantics,
                                 exact_options, label_index);
    }
    case ResilienceMethod::kBruteForce:
      return SolveBruteForceResilience(plan.if_language, db, semantics);
    case ResilienceMethod::kAuto:
      break;
  }
  return Status::Internal("ResiliencePlan holds an unexecutable method");
}

Result<ResilienceResult> ComputeResilience(const Language& lang,
                                           const GraphDb& db,
                                           Semantics semantics,
                                           const ResilienceOptions& options,
                                           const LabelIndex* label_index,
                                           SolverScratch* scratch) {
  RPQRES_ASSIGN_OR_RETURN(ResiliencePlan plan,
                          PlanResilience(lang, options.method));
  if (options.method == ResilienceMethod::kAuto) {
    RPQRES_RETURN_IF_ERROR(
        CheckExponentialFallback(plan, options.allow_exponential));
  }
  return ComputeResilienceWithPlan(plan, db, semantics, options.exact,
                                   label_index, scratch);
}

Result<bool> ResilienceAtMost(const Language& lang, const GraphDb& db,
                              Semantics semantics, Capacity k,
                              const ResilienceOptions& options) {
  RPQRES_ASSIGN_OR_RETURN(ResilienceResult result,
                          ComputeResilience(lang, db, semantics, options));
  if (result.infinite) return false;
  return result.value <= k;
}

namespace {

/// Shared verification core; source/target < 0 means the Boolean query.
Status VerifyResilienceImpl(const Language& lang, const GraphDb& db,
                            Semantics semantics,
                            const ResilienceResult& result, NodeId source,
                            NodeId target) {
  const LabelIndex index(db);
  auto holds = [&](const std::vector<bool>* removed) {
    return source < 0
               ? EvaluatesToTrue(db, index, lang.min_dfa(), removed)
               : EvaluatesToTrueBetween(db, index, lang.min_dfa(), source,
                                        target, removed);
  };
  // Resilience is +∞ iff ε ∈ L (for fixed endpoints: and they coincide),
  // or the query survives deleting every endogenous fact (a
  // fully-exogenous match exists).
  bool unfalsifiable =
      lang.ContainsEpsilon() && (source < 0 || source == target);
  if (!unfalsifiable && db.NumExogenous() > 0) {
    std::vector<bool> endogenous_removed(db.num_facts(), false);
    for (FactId f = 0; f < db.num_facts(); ++f) {
      endogenous_removed[f] = !db.IsExogenous(f);
    }
    unfalsifiable = holds(&endogenous_removed);
  }
  if (result.infinite != unfalsifiable) {
    return Status::Internal(
        "result.infinite disagrees with falsifiability (infinite=" +
        std::to_string(result.infinite) +
        ", unfalsifiable=" + std::to_string(unfalsifiable) + ")");
  }
  if (result.infinite) return Status::OK();

  Capacity cost = 0;
  std::vector<bool> removed(db.num_facts(), false);
  for (FactId f : result.contingency) {
    if (f < 0 || f >= db.num_facts()) {
      return Status::Internal("contingency contains invalid fact id " +
                              std::to_string(f));
    }
    if (!db.IsLive(f)) {
      return Status::Internal("contingency contains tombstoned fact id " +
                              std::to_string(f));
    }
    if (removed[f]) {
      return Status::Internal("contingency contains duplicate fact id " +
                              std::to_string(f));
    }
    if (db.IsExogenous(f)) {
      return Status::Internal("contingency contains exogenous fact id " +
                              std::to_string(f));
    }
    removed[f] = true;
    cost += db.Cost(f, semantics);
  }
  if (cost != result.value) {
    return Status::Internal("contingency cost " + std::to_string(cost) +
                            " != reported value " +
                            std::to_string(result.value));
  }
  if (holds(&removed)) {
    return Status::Internal(
        "query still holds after removing the contingency set");
  }
  return Status::OK();
}

}  // namespace

Status VerifyResilienceResult(const Language& lang, const GraphDb& db,
                              Semantics semantics,
                              const ResilienceResult& result) {
  return VerifyResilienceImpl(lang, db, semantics, result, /*source=*/-1,
                              /*target=*/-1);
}

Status VerifyResilienceResultBetween(const Language& lang, const GraphDb& db,
                                     NodeId source, NodeId target,
                                     Semantics semantics,
                                     const ResilienceResult& result) {
  if (source < 0 || source >= db.num_nodes() || target < 0 ||
      target >= db.num_nodes()) {
    return Status::InvalidArgument(
        "fixed endpoints must be nodes of the database");
  }
  return VerifyResilienceImpl(lang, db, semantics, result, source, target);
}

}  // namespace rpqres
