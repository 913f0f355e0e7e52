// rpqres — engine/request: the serving API v2 request/response surface.
//
// The paper's headline tractability results hold *per database*: a query
// compiled once (parse → minimal DFA → Figure 1 classification → solver
// plan) is polynomial-time executable against any number of databases.
// The v2 API is shaped around exactly that: a ResilienceRequest names a
// query (by regex text, resolved through the engine's plan cache, or by a
// precompiled CompiledQuery handle) and a database (a DbHandle from the
// DbRegistry — owned immutable snapshot plus per-label index, replacing
// v1's borrowed raw pointer), plus per-request overrides:
//
//   * method            — force one solver (the VCSP view: the same
//                         instance can route to algorithms of wildly
//                         different complexity; callers may pin one)
//   * allow_exponential — allow or refuse the kAuto plan's exact
//                         fallback for this request
//   * max_exact_search_nodes — per-request branch & bound budget
//   * deadline / cancel — wall-clock deadline and cooperative
//                         cancellation, polled inside the exact solver
//
// One ResilienceResponse type covers every entry point: plain runs fill
// status/result/stats, differential runs additionally fill the
// `differential` section.

#ifndef RPQRES_ENGINE_REQUEST_H_
#define RPQRES_ENGINE_REQUEST_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "engine/compiled_query.h"
#include "engine/db_registry.h"
#include "engine/engine_stats.h"
#include "graphdb/graph_db.h"
#include "obs/trace.h"
#include "resilience/resilience.h"
#include "resilience/result.h"
#include "util/cancel.h"
#include "util/status.h"

namespace rpqres {

/// Per-request overrides. Every unset optional falls back to the engine's
/// EngineOptions default, so a default-constructed RequestOptions is
/// exactly the v1 behavior.
struct RequestOptions {
  /// Force a specific solver instead of the compiled kAuto plan: the
  /// request runs PlanResilienceWithIF(IF(L), method) on the compiled
  /// IF(L). kAuto (or unset) = execute the compiled plan. Forcing a
  /// polynomial method on a language whose IF(L) lies outside its class
  /// fails with FailedPrecondition, as ComputeResilience does. A forced
  /// kExact always runs, whatever `allow_exponential` says.
  std::optional<ResilienceMethod> method;
  /// Whether a kAuto request may fall back to the exponential exact
  /// solver; unset = EngineOptions::allow_exponential. Checked at
  /// execution (CheckExponentialFallback): Unimplemented when refused.
  std::optional<bool> allow_exponential;
  /// Branch & bound node budget when the exact solver runs (OutOfRange
  /// when exhausted).
  std::optional<uint64_t> max_exact_search_nodes;
  /// Wall-clock deadline. Checked before solving and polled periodically
  /// inside the exact branch & bound; a request past its deadline fails
  /// with DeadlineExceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Optional caller-held cancellation token (shared with the caller,
  /// who may RequestCancel() at any time → the request fails with
  /// Cancelled). Composes with `deadline`.
  std::shared_ptr<CancelToken> cancel;
  /// Caller-owned span sink. When set, the engine records this request's
  /// trace spans (request, resolve, result-cache lookup, solve, product
  /// prune, flow build, Dinic, cut extraction, exact search, ...) into it
  /// instead of an internal per-request context, so the caller can
  /// inspect the span tree after the response returns. Must outlive the
  /// request (beware Submit: the solve is asynchronous). Overrides
  /// EngineOptions::enable_tracing for this request.
  obs::TraceContext* trace = nullptr;
};

/// One unit of serving work: evaluate RES(Q, db) under `semantics`.
struct ResilienceRequest {
  /// The query as regex text, compiled through (or fetched from) the
  /// engine's plan cache. Ignored when `query` is set.
  std::string regex;
  /// Precompiled query handle (from ResilienceEngine::Compile or
  /// CompileQuery); takes precedence over `regex`, and its compiled-in
  /// semantics takes precedence over `semantics` below.
  std::shared_ptr<const CompiledQuery> query;
  /// The database, as a DbRegistry handle. Invalid handles fail with
  /// InvalidArgument (unless `db_ref` resolves one below).
  DbHandle db;
  /// Name-based database resolution (registry v3): when `db` is invalid
  /// and both fields here are set, the engine resolves
  /// "lineage", "lineage@latest", or "lineage@<version>" against
  /// `registry` at execution time — so a queued request against
  /// "orders@latest" sees whatever version is latest when it actually
  /// runs. Resolution failures surface as the response status.
  std::string db_ref;
  const DbRegistry* registry = nullptr;
  Semantics semantics = Semantics::kSet;
  /// Fixed-endpoint resilience (non-Boolean extension, Thm 3.13 ext):
  /// when set, RES is the minimum cost to remove every L-walk from
  /// `source` to `target` (node ids of `db`) instead of every L-walk
  /// anywhere. Both must be set together (InvalidArgument otherwise).
  /// Requires the query language *itself* to be local — IF-rewriting is
  /// unsound with fixed endpoints, so non-local languages fail with
  /// FailedPrecondition. Differential runs use the endpoint-pinned
  /// brute force as the reference on databases of at most 16 facts, and
  /// judge larger instances inconclusive.
  std::optional<NodeId> source;
  std::optional<NodeId> target;
  RequestOptions options;
};

/// The unified response: every entry point fills status/result/stats; the
/// differential entry points additionally fill `differential`.
struct ResilienceResponse {
  /// OK iff `result` holds an answer. Notable codes: InvalidArgument
  /// (no database / bad regex), DeadlineExceeded, Cancelled, OutOfRange
  /// (exact budget exhausted), Unimplemented (exponential fallback
  /// disallowed).
  Status status;
  /// The answer and what computed it (algorithm, network size, pruning,
  /// search nodes), also on a result-cache hit.
  ResilienceResult result;
  /// Always filled as far as execution got (classification, caches,
  /// timings).
  InstanceStats stats;

  /// Second opinion + verdict, present iff the request ran differentially
  /// (EvaluateDifferential).
  struct Differential {
    /// The independent exact reference solve. Its wall time lands in the
    /// engine's `reference_solve` phase histogram.
    Status reference_status;
    ResilienceResult reference_result;
    /// Matching values/infiniteness AND both witnesses verified.
    bool agree = false;
    /// A side ran out of budget/deadline: no refutable answer, neither
    /// agreement nor mismatch (`agree` false, `mismatch` empty).
    bool inconclusive = false;
    /// One-line divergence description, empty iff agree or inconclusive.
    std::string mismatch;
  };
  std::optional<Differential> differential;
};

/// Fills `response->differential` (creating it if absent) from the
/// primary and reference results plus witness verification against
/// (lang, db, semantics). Both-errored pairs agree iff the status codes
/// match (e.g. both refused an unparsable regex); budget/deadline
/// exhaustion on either side is inconclusive.
/// Exposed so the workload oracle's counterexample minimizer can re-judge
/// shrunken databases outside the engine.
void JudgeDifferential(const Language& lang, const GraphDb& db,
                       Semantics semantics, ResilienceResponse* response);

/// Endpoint-pinned judging for fixed-endpoint requests: identical
/// verdict logic, but witnesses are verified against the (source, target)
/// query (VerifyResilienceResultBetween).
void JudgeDifferentialBetween(const Language& lang, const GraphDb& db,
                              NodeId source, NodeId target,
                              Semantics semantics,
                              ResilienceResponse* response);

}  // namespace rpqres

#endif  // RPQRES_ENGINE_REQUEST_H_
