// rpqres — engine/compiled_query: a query compiled once, executed often.
//
// Real RPQ resilience workloads are few-queries-many-databases: the same
// regex is asked against many graphs (or many versions of one graph).
// CompileQuery front-loads every per-query cost — parse, ε-NFA,
// determinization + minimization, IF(L), the solver choice with its
// tables, and the Figure 1 classification read off that plan — into an
// immutable CompiledQuery that ComputeResilienceWithPlan executes per
// database.

#ifndef RPQRES_ENGINE_COMPILED_QUERY_H_
#define RPQRES_ENGINE_COMPILED_QUERY_H_

#include <memory>
#include <optional>
#include <string>

#include "classify/classifier.h"
#include "graphdb/graph_db.h"
#include "lang/language.h"
#include "resilience/resilience.h"
#include "resilience/ro_tables.h"
#include "util/status.h"

namespace rpqres {

/// Knobs for query compilation.
struct CompileOptions {
  /// Whether the plan may fall back to the exponential exact solver when
  /// no polynomial algorithm applies (Unimplemented otherwise).
  bool allow_exponential = true;
  /// Bound on the four-legged witness search during classification
  /// (ClassifyResilience's max_word_length).
  int max_word_length = 8;
};

/// The immutable compilation artifact. Shared (via shared_ptr-to-const)
/// between the plan cache and any number of concurrently running
/// instances; all members are read-only after construction.
struct CompiledQuery {
  /// The regex text as given (plan-cache key component).
  std::string regex;
  /// Semantics this plan was compiled under (plan-cache key component).
  Semantics semantics = Semantics::kSet;
  /// Parsed language: ε-NFA plus minimal DFA.
  Language language;
  /// The Figure 1 complexity verdict for IF(L), with its justifying rule.
  Classification classification;
  /// The executable dispatch plan: IF(L), chosen solver, RO-εNFA tables.
  ResiliencePlan plan;
  /// Solver tables for the RO-εNFA of the *original* language L (not
  /// IF(L) — the IF rewrite is unsound with fixed endpoints), present iff
  /// L itself is local. Powers fixed-endpoint requests
  /// (ResilienceRequest::source/target).
  std::optional<RoProductTables> ro_tables_exact;
  /// Wall time CompileQuery spent producing this artifact, microseconds.
  double compile_micros = 0;
};

/// Compiles `regex` under `semantics`. This is the uncached single-query
/// path; ResilienceEngine::Compile adds the LRU plan cache on top.
Result<std::shared_ptr<const CompiledQuery>> CompileQuery(
    const std::string& regex, Semantics semantics,
    const CompileOptions& options = {});

}  // namespace rpqres

#endif  // RPQRES_ENGINE_COMPILED_QUERY_H_
