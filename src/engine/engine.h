// rpqres — engine/engine: the compiled-query resilience engine.
//
// ResilienceEngine is the serving-path entry point of the library. The
// surface is request/response:
//
//   DbRegistry registry;
//   DbHandle db = registry.Register(std::move(graph));
//   ResilienceEngine engine;
//   ResilienceResponse r = engine.Evaluate(
//       {.regex = "ax*b", .db = db, .semantics = Semantics::kBag});
//   std::future<ResilienceResponse> f = engine.Submit(
//       {.regex = "ax*b", .db = db,
//        .options = {.deadline = std::chrono::steady_clock::now() + 50ms}});
//
// It compiles each (regex, semantics) pair once — parse, minimal DFA,
// Figure 1 classification, solver selection, RO-εNFA product tables —
// behind an LRU plan cache, evaluates batches of independent requests
// across a fixed thread pool (synchronously via EvaluateBatch,
// asynchronously via Submit/SubmitBatch futures), honours per-request
// solver/budget/deadline overrides and fixed endpoints, and records
// per-instance and aggregate statistics. Each worker thread owns a
// SolverScratch arena (flow/solver_scratch.h), so steady-state flow
// solves allocate nothing. Layering:
//
//   engine        (this file: cache + batch + async + stats)
//     ├── request / db_registry  (request types, owned db snapshots)
//     └── compiled_query  (one-shot compilation artifact)
//           └── resilience (ResiliencePlan dispatch), classify (Fig 1)
//                 └── lang / automata / flow / graphdb
//
// The v1 entry points (QueryInstance / Run / RunBatch / RunDifferential
// and DbHandle::Borrow) were deleted after their one-release deprecation
// window; see README "Migrating from v1".

#ifndef RPQRES_ENGINE_ENGINE_H_
#define RPQRES_ENGINE_ENGINE_H_

#include <array>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/compiled_query.h"
#include "engine/db_registry.h"
#include "engine/engine_stats.h"
#include "engine/plan_cache.h"
#include "engine/request.h"
#include "engine/result_cache.h"
#include "graphdb/graph_db.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "resilience/resilience.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rpqres {

/// Engine-wide defaults. Everything a RequestOptions can override falls
/// back to the value here.
struct EngineOptions {
  /// Max compiled plans kept resident (LRU beyond that).
  size_t plan_cache_capacity = 256;
  /// Worker threads for batch/async execution; 0 = DefaultNumThreads().
  int num_threads = 0;
  /// Forwarded to CompileQuery / plan selection.
  bool allow_exponential = true;
  int max_word_length = 8;
  /// Branch-and-bound node budget when an instance routes to the exact
  /// solver (both the plan side and the differential reference side).
  /// Exceeding it yields OutOfRange — differential runs report such pairs
  /// as inconclusive, not as mismatches.
  uint64_t max_exact_search_nodes = 50'000'000;
  /// Max entries in the version-keyed ResultCache (answers keyed by
  /// (query, lineage, version, semantics, endpoints) — sound because
  /// registry versions are immutable). 0 disables the cache, the
  /// default: benchmarks and differential harnesses measure solvers, not
  /// memoization; serving deployments opt in.
  size_t result_cache_capacity = 0;
  /// Fixed-endpoint differential reference: requests whose database has
  /// at most this many live facts get an endpoint-pinned brute-force
  /// second opinion (2^facts subsets); larger instances judge
  /// inconclusive. Clamped to 22.
  int fixed_endpoint_reference_max_facts = 16;

  // --- observability (src/obs/) --------------------------------------------
  /// Record per-request trace spans (resolve, result-cache lookup, solve,
  /// product prune, flow build, Dinic, cut extraction, exact search) into
  /// a stack-allocated per-request context, feeding the per-phase latency
  /// histograms and the slow-query log. The context is fixed-size and the
  /// span clock is two steady_clock reads per phase, so the zero-
  /// allocation hot path is preserved; measured overhead is a few percent
  /// of p50 on the deep-product flow benchmark (see README
  /// "Observability"). Per-request RequestOptions::trace overrides this.
  bool enable_tracing = true;
  /// Requests slower than this land in the slow-query log with their full
  /// span tree (DeadlineExceeded/Cancelled requests land there regardless
  /// of duration).
  int64_t slow_query_threshold_micros = 10'000;
  /// Slow-query ring-buffer capacity; 0 disables the log.
  size_t slow_query_log_capacity = 64;
  /// Byte budget for the version-keyed ResultCache (witness sets
  /// accounted per entry); 0 = bound by entry count only. Ignored while
  /// result_cache_capacity is 0.
  size_t result_cache_max_bytes = 0;
};

/// Output formats of ResilienceEngine::ExportMetrics.
enum class MetricsFormat {
  kJson,        ///< one JSON object (counters/histograms+quantiles/gauges)
  kPrometheus,  ///< Prometheus text exposition 0.0.4
};

/// Read-only plan-cache shape (size, capacity) — the engine owns the
/// cache; callers observe, never mutate. Hits, misses and evictions are
/// counted once, in the engine's metrics: read them from stats().
struct PlanCacheView {
  size_t size = 0;
  size_t capacity = 0;
};

/// Read-only ResultCache shape. Hits, misses, evictions and
/// invalidations are counted once, in the engine's metrics: read them
/// from stats().
struct ResultCacheView {
  size_t size = 0;
  size_t capacity = 0;
  /// Accounted entry footprint and its budget (0 = unbounded by bytes).
  size_t bytes = 0;
  size_t max_bytes = 0;
};

/// The EngineStats view of a metrics snapshot taken from
/// ResilienceEngine::TakeMetricsSnapshot (or a fleet merge of several,
/// obs::MergeShardSnapshots). Reads only samples whose shard label equals
/// `shard`: "" for one engine's snapshot, "all" for a fleet roll-up.
EngineStats EngineStatsFromMetrics(const obs::MetricsSnapshot& snapshot,
                                   std::string_view shard = "");

/// The engine. Thread-safe: Compile/Evaluate/EvaluateBatch/Submit may be
/// called concurrently from multiple threads; a batch call additionally
/// parallelizes internally over the engine's thread pool.
class ResilienceEngine {
 public:
  explicit ResilienceEngine(EngineOptions options = {});

  /// Returns the compiled plan for (regex, semantics), from the plan
  /// cache when resident, compiling (and caching) otherwise. The returned
  /// handle can be placed in ResilienceRequest::query to skip cache
  /// interaction on the hot path.
  Result<std::shared_ptr<const CompiledQuery>> Compile(
      const std::string& regex, Semantics semantics);

  /// Evaluates one request end-to-end (compile-or-cache + solve),
  /// honouring its per-request overrides, deadline, and fixed endpoints.
  ResilienceResponse Evaluate(const ResilienceRequest& request);

  /// Evaluates many requests: compiles the distinct queries once
  /// (serially, so cache accounting is deterministic), then solves all
  /// requests across the thread pool. responses[i] corresponds to
  /// requests[i]; values are independent of thread interleaving because
  /// requests never share mutable state.
  std::vector<ResilienceResponse> EvaluateBatch(
      std::span<const ResilienceRequest> requests);

  /// Differential batch mode: every request is solved twice — once
  /// through the compiled plan (sharing the plan cache with Evaluate)
  /// and once through the exact reference solver — and the two answers
  /// are judged (JudgeDifferential) into response.differential.
  /// Reference solves are NOT recorded in per-instance aggregate stats;
  /// the differentials_run / differential_mismatches counters track them.
  std::vector<ResilienceResponse> EvaluateDifferential(
      std::span<const ResilienceRequest> requests);

  /// Asynchronous submission: enqueues the request on the engine's thread
  /// pool and returns immediately. The future resolves to exactly what
  /// Evaluate(request) would return (deadlines keep counting while the
  /// request waits in the queue — a deadline is wall-clock, not
  /// time-on-CPU). Never throws through the future.
  std::future<ResilienceResponse> Submit(ResilienceRequest request);

  /// Completion hook for a submitted request, invoked on the worker
  /// thread that evaluated it, BEFORE the future resolves — so by the
  /// time future.get() returns, the callback's effects are visible. The
  /// serve Router uses this to release admission slots and record
  /// end-to-end latency at the exact completion instant.
  using ResponseCallback = std::function<void(const ResilienceResponse&)>;

  /// Submit with a completion hook; `on_complete` may be empty. The
  /// callback must not call back into the engine's async surface
  /// (Submit from inside it would deadlock a single-thread pool at
  /// shutdown) and must outlive the request.
  std::future<ResilienceResponse> Submit(ResilienceRequest request,
                                         ResponseCallback on_complete);

  /// Submits every request; futures[i] corresponds to requests[i].
  /// Unlike EvaluateBatch, distinct queries are deduplicated only through
  /// the plan cache (two in-flight tasks may both compile a cold regex).
  std::vector<std::future<ResilienceResponse>> SubmitBatch(
      std::vector<ResilienceRequest> requests);

  // --- Introspection ------------------------------------------------------

  /// Aggregate counters, computed from the engine's metric families
  /// (EngineStatsFromMetrics over TakeMetricsSnapshot) — every event is
  /// counted once, there, with no lock. The view is still CONSISTENT
  /// under concurrent Submit/Evaluate traffic: errors and instances_run
  /// come from one read of the four disjoint status cells, and a request
  /// bumps its status cell before its algorithm and result-cache cells
  /// (release) while the snapshot reads those first (acquire). So
  /// deadline_exceeded + cancelled <= errors <= instances_run,
  /// errors + sum of instances_by_algorithm <= instances_run and
  /// result_cache_hits + result_cache_misses <= instances_run hold in
  /// every snapshot, never just at quiescence.
  EngineStats stats() const;
  /// Zeroes every metric family (counters and latency histograms), and
  /// with them stats(). The slow-query log is NOT cleared (it is a log,
  /// not a counter); use slow_queries() before resetting if needed.
  void ResetStats();

  /// Renders every engine metric — request/solve/phase latency histograms
  /// (p50/p95/p99 in the JSON form), disjoint-status request counters,
  /// cache event counters, and instantaneous gauges (cache entries and
  /// bytes, slow-log depth, plus DbRegistry lineage/version/fact gauges
  /// when `registry` is non-null) — in the requested format.
  std::string ExportMetrics(MetricsFormat format,
                            const DbRegistry* registry = nullptr) const;

  /// The structured form of ExportMetrics (exporter-independent).
  obs::MetricsSnapshot TakeMetricsSnapshot(
      const DbRegistry* registry = nullptr) const;

  /// The retained slow-query records, oldest first (see
  /// EngineOptions::slow_query_threshold_micros).
  std::vector<obs::SlowQueryRecord> slow_queries() const;

  const EngineOptions& options() const { return options_; }

  /// Read-only plan-cache snapshot.
  PlanCacheView plan_cache_view() const;

  /// Read-only ResultCache snapshot.
  ResultCacheView result_cache_view() const;

  /// Drops cached answers for `lineage` (every version, or just
  /// `version`). Version-keyed entries are never stale, so this is
  /// capacity hygiene for dropped lineages, not a correctness hook; the
  /// dropped count lands in result_cache_invalidations.
  int64_t InvalidateResults(uint64_t lineage,
                            std::optional<uint32_t> version = std::nullopt);

 private:
  /// Compile-or-cache; sets *was_cache_hit (if non-null) to whether the
  /// plan was already resident.
  Result<std::shared_ptr<const CompiledQuery>> CompileInternal(
      const std::string& regex, Semantics semantics, bool* was_cache_hit);

  /// Serial phase 1 shared by EvaluateBatch/EvaluateDifferential:
  /// compiles each distinct (regex, semantics) once, skipping requests
  /// that carry a precompiled query. first_compile[i] marks the request
  /// that pays the compile, so per-instance attribution matches what
  /// sequential Evaluate calls would report.
  struct PlanSlot {
    Result<std::shared_ptr<const CompiledQuery>> compiled{nullptr};
    bool was_resident = false;
  };
  std::map<std::pair<std::string, Semantics>, PlanSlot> CompileDistinct(
      std::span<const ResilienceRequest> requests,
      std::vector<bool>* first_compile);

  /// Engine events with a fixed-label counter cell, resolved once at
  /// construction (kEventCells in engine.cc lists them in this order).
  enum Event {
    kPlanCacheHit, kPlanCacheMiss, kPlanCacheEviction,
    kResultCacheHit, kResultCacheMiss, kResultCacheEviction,
    kResultCacheInvalidation,
    kBatch, kCompilation, kDifferential, kDifferentialMismatch, kSubmit,
    kNumEvents
  };
  void Count(Event event, int64_t n = 1) { events_[event]->Add(n); }

  /// Context handed to RecordInstance alongside the response: side facts
  /// that don't belong in the response itself. Everything is optional, so
  /// a default context is valid (no trace, no resolved db).
  struct RecordContext {
    const ResilienceRequest* request = nullptr;
    const obs::TraceContext* trace = nullptr;
    /// Resolved db identity, for the slow-query log.
    uint64_t lineage = 0;
    uint32_t version = 0;
    /// kResultCacheHit or kResultCacheMiss when the request probed the
    /// result cache. RecordInstance counts it after the status cell.
    std::optional<Event> result_cache_probe;
    double total_micros = 0;
  };

  /// Solve step shared by all entry points; applies per-request
  /// overrides, deadline, cancellation, and fixed endpoints; solves with
  /// the calling thread's SolverScratch; records into the metric
  /// families. Opens a kRequest span on the effective trace
  /// context (request.options.trace, else a stack-local one when
  /// options_.enable_tracing), then delegates to ExecuteTraced.
  /// `plan_lookup_micros` is the already-paid plan-cache/compile lookup
  /// time the caller measured, recorded as a completed span.
  ResilienceResponse Execute(const CompiledQuery& query,
                             const ResilienceRequest& request, bool cache_hit,
                             double compile_micros,
                             double plan_lookup_micros = 0);

  /// The body of Execute: db resolution, result-cache lookup, solver
  /// dispatch. Records spans into `trace` (nullable) and side facts into
  /// `context`; counts only cache evictions — Execute records the
  /// request once on the way out.
  ResilienceResponse ExecuteTraced(const CompiledQuery& query,
                                   const ResilienceRequest& request,
                                   obs::TraceContext* trace,
                                   RecordContext* context);

  /// The exact reference solve + judging for one differential request;
  /// fills response->differential.
  void RunReference(const CompiledQuery& query,
                    const ResilienceRequest& request,
                    ResilienceResponse* response);

  /// Single sink for per-instance accounting: the status cell, then the
  /// algorithm and result-cache cells (stats() relies on that order),
  /// latency histograms and, when the request qualifies, the slow-query
  /// log.
  void RecordInstance(const ResilienceResponse& response,
                      const RecordContext& context);

  EngineOptions options_;
  PlanCache cache_;
  ResultCache result_cache_;
  /// The engine's one counter source. Families live in metrics_; the
  /// pointers below are stable (MetricsRegistry owns them) and set once
  /// in the constructor, in registration order.
  obs::MetricsRegistry metrics_;
  std::array<obs::ShardedCounter*, kNumEvents> events_;  // *_events_total
  obs::CounterFamily* requests_by_algorithm_ = nullptr;  // {algorithm}
  /// rpqres_requests_total cells: ok, error, deadline_exceeded, cancelled.
  std::array<obs::ShardedCounter*, 4> requests_by_status_;
  obs::HistogramFamily* request_latency_ = nullptr;     // {status}, micros
  obs::HistogramFamily* solve_latency_ = nullptr;       // {algorithm}, micros
  obs::HistogramFamily* phase_micros_ = nullptr;        // {phase}, micros
  obs::SlowQueryLog slow_log_;
  /// Declared last on purpose: ~ThreadPool drains still-queued Submit
  /// tasks, which touch cache_/metrics_ — everything they use must be
  /// destroyed after the pool.
  ThreadPool pool_;
};

}  // namespace rpqres

#endif  // RPQRES_ENGINE_ENGINE_H_
