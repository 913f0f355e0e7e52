#include "resilience/exact.h"

#include <algorithm>
#include <optional>

#include "gadgets/condensation.h"
#include "gadgets/hypergraph.h"
#include "graphdb/label_index.h"
#include "graphdb/rpq_eval.h"
#include "lang/infix_free.h"
#include "util/check.h"

namespace rpqres {
namespace {

/// Branch & bound state shared across the recursion.
class BranchAndBound {
 public:
  BranchAndBound(const Language& lang, const GraphDb& db,
                 const LabelIndex& index, Semantics semantics,
                 const ExactOptions& options)
      : lang_(lang), db_(db), index_(index), semantics_(semantics),
        options_(options) {}

  Status Run() {
    removed_.assign(db_.num_facts(), false);
    // Initial incumbent: delete every endogenous fact (a valid
    // contingency set — the caller ruled out fully-exogenous matches).
    best_value_ = db_.TotalCost(semantics_);
    best_set_.clear();
    for (FactId f = 0; f < db_.num_facts(); ++f) {
      if (db_.IsLive(f) && !db_.IsExogenous(f)) best_set_.push_back(f);
    }

    // Greedy fact-disjoint matches give a lower bound; when an incumbent
    // reaches it, the search can stop with a proof of optimality.
    root_lower_bound_ = DisjointMatchLowerBound();
    if (best_value_ <= root_lower_bound_) return Status::OK();
    return Recurse(0, root_lower_bound_);
  }

  Capacity best_value() const { return best_value_; }
  const std::vector<FactId>& best_set() const { return best_set_; }
  uint64_t nodes() const { return nodes_; }

 private:
  // Greedy packing of fact-disjoint matches: their min-fact-costs sum to a
  // valid lower bound, since a contingency set must hit each of them with
  // distinct facts.
  Capacity DisjointMatchLowerBound() {
    std::vector<bool> blocked(db_.num_facts(), false);
    Capacity bound = 0;
    for (;;) {
      std::optional<WitnessWalk> walk =
          ShortestWitnessWalk(db_, index_, lang_.min_dfa(), &blocked);
      if (!walk) break;
      RPQRES_CHECK(!walk->empty());  // ε ∉ L was checked by the caller
      Capacity cheapest = kInfiniteCapacity;
      for (FactId f : WalkMatch(*walk)) {
        cheapest = std::min(cheapest, db_.Cost(f, semantics_));
        blocked[f] = true;
      }
      bound += cheapest;
    }
    return bound;
  }

  Status Recurse(Capacity cost, Capacity lower_bound_hint) {
    if (proved_optimal_) return Status::OK();
    if (++nodes_ > options_.max_search_nodes) {
      return Status::OutOfRange(
          "exact resilience: exceeded max_search_nodes = " +
          std::to_string(options_.max_search_nodes));
    }
    // Cooperative cancellation / deadline poll, amortized over the
    // node-budget counter (a steady_clock read per node would dominate
    // cheap nodes).
    if (options_.cancel != nullptr && (nodes_ & 255) == 0 &&
        options_.cancel->ShouldStop()) {
      return options_.cancel->ToStatus();
    }
    if (cost + lower_bound_hint >= best_value_) return Status::OK();
    std::optional<WitnessWalk> walk =
        ShortestWitnessWalk(db_, index_, lang_.min_dfa(), &removed_);
    if (!walk) {
      // Current removal set is a contingency set cheaper than the best.
      best_value_ = cost;
      best_set_.clear();
      for (FactId f = 0; f < db_.num_facts(); ++f) {
        if (removed_[f]) best_set_.push_back(f);
      }
      if (best_value_ <= root_lower_bound_) {
        proved_optimal_ = true;  // incumbent meets the lower bound
      }
      return Status::OK();
    }
    RPQRES_CHECK(!walk->empty());
    std::vector<FactId> match = WalkMatch(*walk);
    // Exogenous facts cannot be deleted; the caller established that no
    // match is fully exogenous, so at least one branch remains.
    match.erase(std::remove_if(match.begin(), match.end(),
                               [this](FactId f) {
                                 return db_.IsExogenous(f);
                               }),
                match.end());
    // Heuristic: try cheap facts first — they keep the cost budget low and
    // tend to reach good incumbents early.
    std::sort(match.begin(), match.end(), [this](FactId a, FactId b) {
      return db_.Cost(a, semantics_) < db_.Cost(b, semantics_);
    });
    for (FactId f : match) {
      if (proved_optimal_) break;
      Capacity branch_cost = cost + db_.Cost(f, semantics_);
      if (branch_cost >= best_value_) continue;
      removed_[f] = true;
      RPQRES_RETURN_IF_ERROR(Recurse(branch_cost, 0));
      removed_[f] = false;
    }
    return Status::OK();
  }

  const Language& lang_;
  const GraphDb& db_;
  const LabelIndex& index_;
  Semantics semantics_;
  const ExactOptions& options_;

  std::vector<bool> removed_;
  Capacity best_value_ = 0;
  std::vector<FactId> best_set_;
  Capacity root_lower_bound_ = 0;
  bool proved_optimal_ = false;
  uint64_t nodes_ = 0;
};

}  // namespace

Result<ResilienceResult> SolveExactResilience(const Language& lang,
                                              const GraphDb& db,
                                              Semantics semantics,
                                              const ExactOptions& options) {
  // Work on IF(L): same query, shorter witness matches.
  return SolveExactInfixFree(InfixFreeSublanguage(lang), db, semantics,
                             options, /*label_index=*/nullptr);
}

Result<ResilienceResult> SolveExactInfixFree(const Language& ifl,
                                             const GraphDb& db,
                                             Semantics semantics,
                                             const ExactOptions& options,
                                             const LabelIndex* label_index) {
  ResilienceResult result;
  result.algorithm = "exact branch & bound";
  if (ifl.ContainsEpsilon()) {
    result.infinite = true;
    return result;
  }
  // One index serves every evaluation of the search below.
  std::optional<LabelIndex> built;
  const LabelIndex& index =
      label_index != nullptr ? *label_index : built.emplace(db);
  if (!EvaluatesToTrue(db, index, ifl.min_dfa())) {
    return result;  // already false: resilience 0
  }
  // Infinite iff the query survives the deletion of every endogenous fact
  // (then some match is fully exogenous, and conversely).
  std::vector<bool> all_endogenous_removed(db.num_facts(), false);
  for (FactId f = 0; f < db.num_facts(); ++f) {
    all_endogenous_removed[f] = !db.IsExogenous(f);
  }
  if (EvaluatesToTrue(db, index, ifl.min_dfa(), &all_endogenous_removed)) {
    result.infinite = true;
    return result;
  }
  BranchAndBound solver(ifl, db, index, semantics, options);
  RPQRES_RETURN_IF_ERROR(solver.Run());
  result.value = solver.best_value();
  result.contingency = solver.best_set();
  result.search_nodes = solver.nodes();
  return result;
}

Result<ResilienceResult> SolveBruteForceResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics,
                                                   int max_facts) {
  if (db.is_versioned()) {
    // Subset enumeration must range over live facts only; run on the flat
    // materialization and translate the witness back.
    std::vector<FactId> old_id_of;
    GraphDb flat = db.Compact(&old_id_of);
    RPQRES_ASSIGN_OR_RETURN(
        ResilienceResult result,
        SolveBruteForceResilience(lang, flat, semantics, max_facts));
    for (FactId& f : result.contingency) f = old_id_of[f];
    return result;
  }
  ResilienceResult result;
  result.algorithm = "brute force (all subsets)";
  if (db.num_facts() > max_facts || max_facts > 24) {
    return Status::OutOfRange("brute force limited to " +
                              std::to_string(std::min(max_facts, 24)) +
                              " facts, database has " +
                              std::to_string(db.num_facts()));
  }
  if (lang.ContainsEpsilon()) {
    result.infinite = true;
    return result;
  }
  int n = db.num_facts();
  const LabelIndex index(db);
  Capacity best = kInfiniteCapacity;
  uint32_t best_mask = 0;
  std::vector<bool> removed(n, false);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    Capacity cost = 0;
    bool touches_exogenous = false;
    for (int f = 0; f < n; ++f) {
      removed[f] = (mask >> f) & 1u;
      if (removed[f]) {
        // Exogenous facts cost kInfiniteCapacity — accumulating that
        // would overflow; the subset is discarded below anyway.
        if (db.IsExogenous(f)) {
          touches_exogenous = true;
        } else {
          cost += db.Cost(f, semantics);
        }
      }
    }
    if (touches_exogenous || cost >= best) continue;
    if (!EvaluatesToTrue(db, index, lang.min_dfa(), &removed)) {
      best = cost;
      best_mask = mask;
    }
  }
  if (best == kInfiniteCapacity) {
    // No endogenous subset falsifies the query (exogenous-only matches).
    result.infinite = true;
    return result;
  }
  result.value = best;
  for (int f = 0; f < n; ++f) {
    if ((best_mask >> f) & 1u) result.contingency.push_back(f);
  }
  result.search_nodes = 1ull << n;
  return result;
}

Result<ResilienceResult> SolveBruteForceResilienceBetween(
    const Language& lang, const GraphDb& db, NodeId source, NodeId target,
    Semantics semantics, int max_facts) {
  if (db.is_versioned()) {
    std::vector<FactId> old_id_of;
    GraphDb flat = db.Compact(&old_id_of);
    RPQRES_ASSIGN_OR_RETURN(
        ResilienceResult result,
        SolveBruteForceResilienceBetween(lang, flat, source, target,
                                         semantics, max_facts));
    for (FactId& f : result.contingency) f = old_id_of[f];
    return result;
  }
  ResilienceResult result;
  result.algorithm = "brute force, fixed endpoints";
  if (db.num_facts() > max_facts || max_facts > 24) {
    return Status::OutOfRange("brute force limited to " +
                              std::to_string(std::min(max_facts, 24)) +
                              " facts, database has " +
                              std::to_string(db.num_facts()));
  }
  if (lang.ContainsEpsilon() && source == target) {
    result.infinite = true;
    return result;
  }
  int n = db.num_facts();
  const LabelIndex index(db);
  Capacity best = kInfiniteCapacity;
  uint32_t best_mask = 0;
  std::vector<bool> removed(n, false);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    Capacity cost = 0;
    bool touches_exogenous = false;
    for (int f = 0; f < n; ++f) {
      removed[f] = (mask >> f) & 1u;
      if (removed[f]) {
        if (db.IsExogenous(f)) {
          touches_exogenous = true;
        } else {
          cost += db.Cost(f, semantics);
        }
      }
    }
    if (touches_exogenous || cost >= best) continue;
    if (!EvaluatesToTrueBetween(db, index, lang.min_dfa(), source, target,
                                &removed)) {
      best = cost;
      best_mask = mask;
    }
  }
  if (best == kInfiniteCapacity) {
    result.infinite = true;
    return result;
  }
  result.value = best;
  for (int f = 0; f < n; ++f) {
    if ((best_mask >> f) & 1u) result.contingency.push_back(f);
  }
  result.search_nodes = 1ull << n;
  return result;
}

Result<ResilienceResult> SolveHittingSetResilience(const Language& lang,
                                                   const GraphDb& db,
                                                   Semantics semantics) {
  ResilienceResult result;
  result.algorithm = "hypergraph hitting set (Def 4.7)";
  if (db.is_versioned()) {
    // The hypergraph's vertices are the whole fact id space; materialize
    // the live facts so no dead id becomes a vertex.
    std::vector<FactId> old_id_of;
    GraphDb flat = db.Compact(&old_id_of);
    RPQRES_ASSIGN_OR_RETURN(
        ResilienceResult remapped,
        SolveHittingSetResilience(lang, flat, semantics));
    for (FactId& f : remapped.contingency) f = old_id_of[f];
    return remapped;
  }
  Language ifl = InfixFreeSublanguage(lang);
  if (ifl.ContainsEpsilon()) {
    result.infinite = true;
    return result;
  }
  RPQRES_ASSIGN_OR_RETURN(Hypergraph matches,
                          HypergraphOfMatches(ifl, db));
  std::vector<Capacity> weights(db.num_facts());
  for (FactId f = 0; f < db.num_facts(); ++f) {
    weights[f] = db.Cost(f, semantics);
  }

  if (semantics == Semantics::kSet && db.NumExogenous() == 0) {
    // Unit weights: the Section 4.3 condensation rules apply (they
    // preserve minimum-cardinality hitting sets, Claim 4.8), and any
    // hitting set of the condensed hypergraph hits the original.
    CondensationResult condensed = Condense(matches, {});
    HittingSetSolution solution = MinimumWeightHittingSet(
        condensed.condensed,
        std::vector<Capacity>(condensed.condensed.num_vertices, 1));
    RPQRES_CHECK(solution.feasible);  // unit weights are always usable
    result.value = solution.cost;
    for (int v : solution.vertices) {
      result.contingency.push_back(condensed.kept_vertices[v]);
    }
  } else {
    // Weighted / exogenous: solve on the raw hypergraph (node-domination
    // is unsound for weights: the dominating vertex may cost more).
    HittingSetSolution solution = MinimumWeightHittingSet(matches, weights);
    if (!solution.feasible) {
      result.infinite = true;  // some match is fully exogenous
      return result;
    }
    result.value = solution.cost;
    result.contingency = solution.vertices;
  }
  std::sort(result.contingency.begin(), result.contingency.end());
  return result;
}

}  // namespace rpqres
