#include "engine/engine.h"

#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "flow/solver_scratch.h"
#include "obs/export.h"
#include "resilience/local_resilience.h"

namespace rpqres {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The effective cancellation chain for a request: the caller-held token
/// (if any), wrapped in a deadline token (if any). The wrapper, when
/// needed, is materialized into *storage, which must outlive the solve.
const CancelToken* EffectiveCancel(const RequestOptions& options,
                                   std::optional<CancelToken>* storage) {
  const CancelToken* cancel = options.cancel.get();
  if (options.deadline.has_value()) {
    storage->emplace(*options.deadline, cancel);
    cancel = &**storage;
  }
  return cancel;
}

/// Fixed-endpoint differential reference: requests whose database has at
/// most this many live facts get an endpoint-pinned brute-force second
/// opinion (2^facts subsets); larger instances judge inconclusive.
constexpr int kFixedEndpointReferenceMaxFacts = 16;

/// No refutable answer: budget exhaustion, deadline, or cancellation.
bool IsInconclusiveCode(StatusCode code) {
  return code == StatusCode::kOutOfRange ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled;
}

/// The four DISJOINT status labels of rpqres_requests_total (unlike
/// EngineStats::errors, which rolls deadline/cancel in), indexed by
/// StatusIndex.
constexpr std::array<std::string_view, 4> kStatusLabels = {
    "ok", "error", "deadline_exceeded", "cancelled"};

int StatusIndex(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kDeadlineExceeded:
      return 2;
    case StatusCode::kCancelled:
      return 3;
    default:
      return 1;
  }
}

constexpr std::string_view kRequestsTotal = "rpqres_requests_total";
constexpr std::string_view kRequestsByAlgorithm =
    "rpqres_requests_by_algorithm_total";

struct EventFamily {
  std::string_view name;
  std::string_view help;
};
constexpr EventFamily kEventFamilies[] = {
    {"rpqres_plan_cache_events_total", "Plan-cache probes and evictions."},
    {"rpqres_result_cache_events_total",
     "Version-keyed result-cache probes, evictions, and explicit "
     "invalidations."},
    {"rpqres_engine_events_total",
     "Engine lifecycle events (compiles, batches, async submits, "
     "differential runs)."},
};

/// One fixed-label event cell: its family (index into kEventFamilies),
/// its label, and the EngineStats field that views it. Indexed by
/// ResilienceEngine::Event.
struct EventCell {
  int family;
  std::string_view label;
  int64_t EngineStats::*field;
};
constexpr EventCell kEventCells[] = {
    {0, "hit", &EngineStats::cache_hits},
    {0, "miss", &EngineStats::cache_misses},
    {0, "eviction", &EngineStats::cache_evictions},
    {1, "hit", &EngineStats::result_cache_hits},
    {1, "miss", &EngineStats::result_cache_misses},
    {1, "eviction", &EngineStats::result_cache_evictions},
    {1, "invalidation", &EngineStats::result_cache_invalidations},
    {2, "batch", &EngineStats::batches_run},
    {2, "compilation", &EngineStats::compilations},
    {2, "differential", &EngineStats::differentials_run},
    {2, "differential_mismatch", &EngineStats::differential_mismatches},
    {2, "submit", &EngineStats::submits},
};

}  // namespace

EngineStats EngineStatsFromMetrics(const obs::MetricsSnapshot& snapshot,
                                   std::string_view shard) {
  EngineStats stats;
  for (const obs::CounterFamily::Snapshot& family : snapshot.counters) {
    for (const obs::CounterFamily::Sample& sample : family.samples) {
      if (sample.shard != shard) continue;
      if (family.name == kRequestsTotal) {
        stats.instances_run += sample.value;
        if (sample.label != "ok") stats.errors += sample.value;
        if (sample.label == "deadline_exceeded") {
          stats.deadline_exceeded = sample.value;
        }
        if (sample.label == "cancelled") stats.cancelled = sample.value;
      } else if (family.name == kRequestsByAlgorithm) {
        // A cell exists from its first request on, but reads 0 until
        // that request's add lands (and again after ResetStats).
        if (sample.value > 0) {
          stats.instances_by_algorithm[sample.label] = sample.value;
        }
      } else {
        for (const EventCell& cell : kEventCells) {
          if (family.name == kEventFamilies[cell.family].name &&
              sample.label == cell.label) {
            stats.*cell.field = sample.value;
          }
        }
      }
    }
  }
  return stats;
}

// Counter families register in the order MetricsRegistry::TakeSnapshot
// reads them: event families, then algorithms, then statuses. A request
// bumps its status cell before its algorithm and result-cache cells, so
// stats() (and any view of the export) reads those first and never counts
// an algorithm or probe of a request whose status it missed.
ResilienceEngine::ResilienceEngine(EngineOptions options)
    : options_(options),
      cache_(options.plan_cache_capacity),
      result_cache_(options.result_cache_capacity,
                    options.result_cache_max_bytes),
      events_([this] {
        static_assert(std::size(kEventCells) == size_t{kNumEvents});
        std::array<obs::ShardedCounter*, kNumEvents> cells{};
        for (size_t i = 0; i < cells.size(); ++i) {
          const EventFamily& family = kEventFamilies[kEventCells[i].family];
          cells[i] = &metrics_.Counter(family.name, family.help, "event")
                          ->WithLabel(kEventCells[i].label);
        }
        return cells;
      }()),
      requests_by_algorithm_(metrics_.Counter(
          kRequestsByAlgorithm,
          "Answered requests by the solver algorithm that produced the "
          "answer.",
          "algorithm")),
      requests_by_status_([this] {
        obs::CounterFamily* family = metrics_.Counter(
            kRequestsTotal,
            "Requests by disjoint final status; the four labels sum to "
            "instances_run.",
            "status");
        std::array<obs::ShardedCounter*, kStatusLabels.size()> cells{};
        for (size_t i = 0; i < cells.size(); ++i) {
          cells[i] = &family->WithLabel(kStatusLabels[i]);
        }
        return cells;
      }()),
      request_latency_(metrics_.Histogram(
          "rpqres_request_latency_micros",
          "End-to-end request wall time in microseconds, by disjoint final "
          "status.",
          "status")),
      solve_latency_(metrics_.Histogram(
          "rpqres_solve_latency_micros",
          "Solver wall time in microseconds, by algorithm (answered "
          "requests only).",
          "algorithm")),
      phase_micros_(metrics_.Histogram(
          "rpqres_phase_micros",
          "Per-phase wall time in microseconds, from request trace spans.",
          "phase")),
      slow_log_(options.slow_query_log_capacity),
      pool_(options.num_threads > 0 ? options.num_threads
                                    : ThreadPool::DefaultNumThreads()) {}

Result<std::shared_ptr<const CompiledQuery>> ResilienceEngine::Compile(
    const std::string& regex, Semantics semantics) {
  return CompileInternal(regex, semantics, nullptr);
}

Result<std::shared_ptr<const CompiledQuery>> ResilienceEngine::CompileInternal(
    const std::string& regex, Semantics semantics, bool* was_cache_hit) {
  if (std::shared_ptr<const CompiledQuery> cached =
          cache_.Lookup(regex, semantics)) {
    if (was_cache_hit) *was_cache_hit = true;
    Count(kPlanCacheHit);
    return cached;
  }
  if (was_cache_hit) *was_cache_hit = false;
  // Counted at the probe, before the compile can fail.
  Count(kPlanCacheMiss);
  CompileOptions compile_options;
  compile_options.max_word_length = options_.max_word_length;
  RPQRES_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledQuery> compiled,
                          CompileQuery(regex, semantics, compile_options));
  Count(kPlanCacheEviction, static_cast<int64_t>(cache_.Insert(compiled)));
  Count(kCompilation);
  return compiled;
}

// ---------------------------------------------------------------------------
// v2 entry points
// ---------------------------------------------------------------------------

ResilienceResponse ResilienceEngine::Evaluate(
    const ResilienceRequest& request) {
  if (request.query != nullptr) {
    // Caller-managed plan: no cache interaction, no compile attribution.
    return Execute(*request.query, request, /*cache_hit=*/true,
                   /*compile_micros=*/0);
  }
  bool was_resident = false;
  auto lookup_start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const CompiledQuery>> compiled =
      CompileInternal(request.regex, request.semantics, &was_resident);
  const double lookup_micros = MicrosSince(lookup_start);
  if (!compiled.ok()) {
    ResilienceResponse response;
    response.status = compiled.status();
    RecordContext context;
    context.request = &request;
    context.total_micros = lookup_micros;
    RecordInstance(response, context);
    return response;
  }
  // On a residency hit the measured time is the pure cache probe; on a
  // miss it is dominated by the compile, which Execute records from the
  // plan's own compile_micros instead.
  return Execute(**compiled, request, was_resident,
                 was_resident ? 0 : (*compiled)->compile_micros,
                 was_resident ? lookup_micros : 0);
}

std::map<std::pair<std::string, Semantics>, ResilienceEngine::PlanSlot>
ResilienceEngine::CompileDistinct(std::span<const ResilienceRequest> requests,
                                  std::vector<bool>* first_compile) {
  std::map<std::pair<std::string, Semantics>, PlanSlot> plans;
  first_compile->assign(requests.size(), false);
  for (size_t i = 0; i < requests.size(); ++i) {
    const ResilienceRequest& request = requests[i];
    if (request.query != nullptr) continue;  // caller-managed plan
    auto key = std::make_pair(request.regex, request.semantics);
    if (plans.contains(key)) continue;
    PlanSlot slot;
    slot.compiled = CompileInternal(request.regex, request.semantics,
                                    &slot.was_resident);
    (*first_compile)[i] = !slot.was_resident;
    plans.emplace(std::move(key), std::move(slot));
  }
  return plans;
}

std::vector<ResilienceResponse> ResilienceEngine::EvaluateBatch(
    std::span<const ResilienceRequest> requests) {
  // Phase 1 (serial): compile each distinct (regex, semantics) once.
  std::vector<bool> first_compile;
  std::map<std::pair<std::string, Semantics>, PlanSlot> plans =
      CompileDistinct(requests, &first_compile);

  // Phase 2 (parallel): every request already has a plan; solve.
  std::vector<ResilienceResponse> responses(requests.size());
  pool_.ParallelFor(
      static_cast<int64_t>(requests.size()), [&](int64_t i) {
        const ResilienceRequest& request = requests[i];
        const CompiledQuery* query = request.query.get();
        if (query == nullptr) {
          const PlanSlot& slot =
              plans.at({request.regex, request.semantics});
          if (!slot.compiled.ok()) {
            responses[i].status = slot.compiled.status();
            RecordContext context;
            context.request = &request;
            RecordInstance(responses[i], context);
            return;
          }
          query = slot.compiled->get();
        }
        responses[i] =
            Execute(*query, request, /*cache_hit=*/!first_compile[i],
                    first_compile[i] ? query->compile_micros : 0);
      });
  Count(kBatch);
  return responses;
}

namespace {

/// Shared verdict logic; source/target < 0 judges the Boolean query.
void JudgeDifferentialImpl(const Language& lang, const GraphDb& db,
                           NodeId source, NodeId target, Semantics semantics,
                           ResilienceResponse* response) {
  auto verify = [&](const ResilienceResult& result) {
    return source < 0
               ? VerifyResilienceResult(lang, db, semantics, result)
               : VerifyResilienceResultBetween(lang, db, source, target,
                                               semantics, result);
  };
  if (!response->differential.has_value()) response->differential.emplace();
  ResilienceResponse::Differential& d = *response->differential;
  d.agree = false;
  d.inconclusive = false;
  d.mismatch.clear();
  const Status& ps = response->status;
  const Status& rs = d.reference_status;
  // Budget/deadline exhaustion on either side means no answer to compare.
  if (IsInconclusiveCode(ps.code()) || IsInconclusiveCode(rs.code())) {
    d.inconclusive = true;
    return;
  }
  if (!ps.ok() && !rs.ok()) {
    // Both paths refused (e.g. an argument error both sides share):
    // agreement, unless they refused for different reasons.
    if (ps.code() == rs.code()) {
      d.agree = true;
    } else {
      d.mismatch = "error divergence: primary " + ps.ToString() +
                   " vs reference " + rs.ToString();
    }
    return;
  }
  if (!ps.ok() || !rs.ok()) {
    d.mismatch = "status divergence: primary " + ps.ToString() +
                 " vs reference " + rs.ToString();
    return;
  }
  const ResilienceResult& p = response->result;
  const ResilienceResult& r = d.reference_result;
  if (p.infinite != r.infinite) {
    d.mismatch =
        "infinite divergence: primary=" + std::to_string(p.infinite) + " (" +
        p.algorithm + ") vs reference=" + std::to_string(r.infinite) + " (" +
        r.algorithm + ")";
    return;
  }
  if (!p.infinite && p.value != r.value) {
    d.mismatch = "value divergence: primary=" + std::to_string(p.value) +
                 " (" + p.algorithm +
                 ") vs reference=" + std::to_string(r.value) + " (" +
                 r.algorithm + ")";
    return;
  }
  Status primary_witness = verify(p);
  if (!primary_witness.ok()) {
    d.mismatch = "primary witness invalid (" + p.algorithm + "): " +
                 primary_witness.message();
    return;
  }
  Status reference_witness = verify(r);
  if (!reference_witness.ok()) {
    d.mismatch = "reference witness invalid (" + r.algorithm + "): " +
                 reference_witness.message();
    return;
  }
  d.agree = true;
}

}  // namespace

void JudgeDifferential(const Language& lang, const GraphDb& db,
                       Semantics semantics, ResilienceResponse* response) {
  JudgeDifferentialImpl(lang, db, /*source=*/-1, /*target=*/-1, semantics,
                        response);
}

void JudgeDifferentialBetween(const Language& lang, const GraphDb& db,
                              NodeId source, NodeId target,
                              Semantics semantics,
                              ResilienceResponse* response) {
  JudgeDifferentialImpl(lang, db, source, target, semantics, response);
}

void ResilienceEngine::RunReference(const CompiledQuery& query,
                                    const ResilienceRequest& request,
                                    ResilienceResponse* response) {
  response->differential.emplace();
  ResilienceResponse::Differential& d = *response->differential;
  const std::string_view reference_phase =
      obs::SpanKindName(obs::SpanKind::kReferenceSolve);
  const std::string_view judge_phase =
      obs::SpanKindName(obs::SpanKind::kDifferentialJudge);
  if (request.source.has_value() || request.target.has_value()) {
    // Fixed endpoints: the walk-based exact reference answers the Boolean
    // query only, so the second opinion is the endpoint-pinned all-subsets
    // brute force — real on small databases, inconclusive beyond the
    // budget (2^facts subsets).
    if (!request.db.valid() || !request.source.has_value() ||
        !request.target.has_value()) {
      // Argument errors agree by construction: the reference would refuse
      // these requests identically.
      d.reference_status = response->status;
      d.agree = !response->status.ok();
      d.inconclusive = response->status.ok();
      return;
    }
    if (!response->status.ok()) {
      // No primary answer to compare — deadline/budget exhaustion, or a
      // capability refusal (e.g. non-local language) the brute force does
      // not share. Neither agreement nor mismatch.
      d.reference_status = response->status;
      d.inconclusive = true;
      return;
    }
    const GraphDb& db = request.db.db();
    auto start = std::chrono::steady_clock::now();
    Result<ResilienceResult> reference = SolveBruteForceResilienceBetween(
        query.language, db, *request.source, *request.target, query.semantics,
        kFixedEndpointReferenceMaxFacts);
    phase_micros_->WithLabel(reference_phase).Record(MicrosSince(start));
    if (!reference.ok()) {
      d.reference_status = reference.status();
      // OutOfRange == database too large for the subset enumeration: no
      // refutable answer, not a divergence.
      d.inconclusive = true;
      return;
    }
    d.reference_result = *std::move(reference);
    auto judge_start = std::chrono::steady_clock::now();
    JudgeDifferentialBetween(query.language, db, *request.source,
                             *request.target, query.semantics, response);
    phase_micros_->WithLabel(judge_phase).Record(MicrosSince(judge_start));
    return;
  }
  if (!request.db.valid()) {
    // No database to solve or judge against: both sides refused with the
    // same InvalidArgument, which per the JudgeDifferential contract is
    // agreement (a caller-side argument error, not a solver divergence).
    d.reference_status = response->status;
    d.agree = true;
    return;
  }
  const GraphDb& db = request.db.db();

  // Reference: the exponential exact solver on the original language,
  // bypassing plan dispatch entirely, under the same per-request budget
  // and deadline as the primary side.
  ExactOptions reference_options;
  reference_options.max_search_nodes =
      request.options.max_exact_search_nodes.value_or(
          options_.max_exact_search_nodes);
  std::optional<CancelToken> deadline_token;
  reference_options.cancel = EffectiveCancel(request.options, &deadline_token);

  auto start = std::chrono::steady_clock::now();
  Result<ResilienceResult> reference =
      reference_options.cancel != nullptr &&
              reference_options.cancel->ShouldStop()
          ? Result<ResilienceResult>(reference_options.cancel->ToStatus())
          : SolveExactResilience(query.language, db, query.semantics,
                                 reference_options);
  phase_micros_->WithLabel(reference_phase).Record(MicrosSince(start));
  if (!reference.ok()) {
    d.reference_status = reference.status();
  } else {
    d.reference_result = *std::move(reference);
  }
  auto judge_start = std::chrono::steady_clock::now();
  JudgeDifferential(query.language, db, query.semantics, response);
  phase_micros_->WithLabel(judge_phase).Record(MicrosSince(judge_start));
}

std::vector<ResilienceResponse> ResilienceEngine::EvaluateDifferential(
    std::span<const ResilienceRequest> requests) {
  std::vector<bool> first_compile;
  std::map<std::pair<std::string, Semantics>, PlanSlot> plans =
      CompileDistinct(requests, &first_compile);

  std::vector<ResilienceResponse> responses(requests.size());
  pool_.ParallelFor(
      static_cast<int64_t>(requests.size()), [&](int64_t i) {
        // Pin name-based databases once so primary and reference judge the
        // SAME snapshot — "@latest" advancing mid-differential must not
        // read as a solver divergence.
        ResilienceRequest request = requests[i];
        if (!request.db.valid() && !request.db_ref.empty() &&
            request.registry != nullptr) {
          Result<DbHandle> resolved = request.registry->Resolve(request.db_ref);
          if (resolved.ok()) request.db = *std::move(resolved);
          // Resolution errors fall through: Execute re-resolves and
          // surfaces the same status.
        }
        ResilienceResponse& response = responses[i];
        const CompiledQuery* query = request.query.get();
        if (query == nullptr) {
          const PlanSlot& slot =
              plans.at({request.regex, request.semantics});
          if (!slot.compiled.ok()) {
            // The reference parses the same regex, so it refuses with the
            // same status: per the JudgeDifferential contract, agreement.
            response.status = slot.compiled.status();
            response.differential.emplace();
            response.differential->reference_status = slot.compiled.status();
            response.differential->agree = true;
            RecordContext context;
            context.request = &request;
            RecordInstance(response, context);
            return;
          }
          query = slot.compiled->get();
        }
        response = Execute(*query, request, /*cache_hit=*/!first_compile[i],
                           first_compile[i] ? query->compile_micros : 0);
        RunReference(*query, request, &response);
      });

  int64_t mismatches = 0;
  for (const ResilienceResponse& response : responses) {
    if (response.differential.has_value() && !response.differential->agree &&
        !response.differential->inconclusive) {
      ++mismatches;
    }
  }
  Count(kBatch);
  Count(kDifferential, static_cast<int64_t>(responses.size()));
  Count(kDifferentialMismatch, mismatches);
  return responses;
}

std::future<ResilienceResponse> ResilienceEngine::Submit(
    ResilienceRequest request) {
  return Submit(std::move(request), ResponseCallback());
}

std::future<ResilienceResponse> ResilienceEngine::Submit(
    ResilienceRequest request, ResponseCallback on_complete) {
  Count(kSubmit);
  auto promise = std::make_shared<std::promise<ResilienceResponse>>();
  std::future<ResilienceResponse> future = promise->get_future();
  pool_.Submit([this, request = std::move(request), promise,
                on_complete = std::move(on_complete)]() {
    ResilienceResponse response = Evaluate(request);
    // Hook first, then resolve: a waiter unblocked by the future must
    // observe the callback's side effects (admission slot released).
    if (on_complete) on_complete(response);
    promise->set_value(std::move(response));
  });
  return future;
}

std::vector<std::future<ResilienceResponse>> ResilienceEngine::SubmitBatch(
    std::vector<ResilienceRequest> requests) {
  std::vector<std::future<ResilienceResponse>> futures;
  futures.reserve(requests.size());
  for (ResilienceRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

// ---------------------------------------------------------------------------
// Execution core
// ---------------------------------------------------------------------------

ResilienceResponse ResilienceEngine::Execute(const CompiledQuery& query,
                                             const ResilienceRequest& request,
                                             bool cache_hit,
                                             double compile_micros,
                                             double plan_lookup_micros) {
  auto start = std::chrono::steady_clock::now();
  // The span sink: the caller's context when provided, a stack-local one
  // when engine-wide tracing is on, nullptr otherwise. Stack allocation
  // keeps the hot path heap-free (see obs/trace.h).
  obs::TraceContext local_trace;
  obs::TraceContext* trace =
      request.options.trace != nullptr
          ? request.options.trace
          : (options_.enable_tracing ? &local_trace : nullptr);
  const int root = trace != nullptr ? trace->Begin(obs::SpanKind::kRequest)
                                    : -1;
  if (trace != nullptr) {
    // Plan acquisition happened before this context existed; backfill it
    // as completed spans so the tree accounts for the whole request.
    if (plan_lookup_micros > 0) {
      trace->AddComplete(obs::SpanKind::kPlanCacheLookup,
                         static_cast<int64_t>(plan_lookup_micros));
    }
    if (compile_micros > 0) {
      trace->AddComplete(obs::SpanKind::kCompile,
                         static_cast<int64_t>(compile_micros));
    }
  }

  RecordContext context;
  ResilienceResponse response = ExecuteTraced(query, request, trace, &context);
  response.stats.cache_hit = cache_hit;
  response.stats.compile_micros = compile_micros;

  if (trace != nullptr) trace->End(root);
  context.request = &request;
  context.trace = trace;
  context.total_micros = MicrosSince(start);
  RecordInstance(response, context);
  return response;
}

ResilienceResponse ResilienceEngine::ExecuteTraced(
    const CompiledQuery& query, const ResilienceRequest& request,
    obs::TraceContext* trace, RecordContext* context) {
  const RequestOptions& request_options = request.options;
  ResilienceResponse response;
  response.stats.complexity =
      ComplexityClassName(query.classification.complexity);
  response.stats.rule = query.classification.rule;

  // Name-based resolution happens at execution time, so a queued request
  // against "lineage@latest" sees the version that is latest *now*.
  DbHandle db = request.db;
  if (!db.valid() && !request.db_ref.empty() && request.registry != nullptr) {
    obs::ScopedSpan resolve_span(trace, obs::SpanKind::kResolve);
    Result<DbHandle> resolved = request.registry->Resolve(request.db_ref);
    if (!resolved.ok()) {
      response.status = resolved.status();
      return response;
    }
    db = *std::move(resolved);
  }
  if (!db.valid()) {
    response.status = Status::InvalidArgument(
        "request carries no database (default DbHandle)");
    return response;
  }
  context->lineage = db.lineage();
  context->version = db.version();

  // Fixed-endpoint validation (the solve itself branches below).
  const bool fixed_endpoints =
      request.source.has_value() || request.target.has_value();
  if (fixed_endpoints) {
    if (!request.source.has_value() || !request.target.has_value()) {
      response.status = Status::InvalidArgument(
          "fixed-endpoint requests must set source and target together");
      return response;
    }
    if (*request.source < 0 || *request.source >= db.db().num_nodes() ||
        *request.target < 0 || *request.target >= db.db().num_nodes()) {
      response.status = Status::InvalidArgument(
          "fixed endpoints must be nodes of the database");
      return response;
    }
    if (request_options.method.has_value() &&
        *request_options.method != ResilienceMethod::kAuto) {
      response.status = Status::InvalidArgument(
          "fixed endpoints cannot be combined with a forced solver");
      return response;
    }
  }

  // Per-request deadline / cancellation scope; lives through the solve.
  std::optional<CancelToken> deadline_token;
  const CancelToken* cancel = EffectiveCancel(request_options, &deadline_token);
  if (cancel != nullptr && cancel->ShouldStop()) {
    response.status = cancel->ToStatus();
    return response;
  }

  // Version-keyed answer cache: sound because a (lineage, version) pair
  // is immutable. Forced-method requests bypass it (they are routing
  // experiments), as do databases registered outside a lineage (lineage 0
  // never occurs — registry ids start at 1 — so validity == lineage != 0).
  const bool cacheable =
      result_cache_.enabled() && db.lineage() != 0 &&
      (!request_options.method.has_value() ||
       *request_options.method == ResilienceMethod::kAuto);
  ResultCacheKey cache_key;
  if (cacheable) {
    cache_key = ResultCacheKey{query.regex,
                               query.semantics,
                               db.lineage(),
                               db.version(),
                               request.source.value_or(-1),
                               request.target.value_or(-1)};
    auto lookup_start = std::chrono::steady_clock::now();
    obs::ScopedSpan lookup_span(trace, obs::SpanKind::kResultCacheLookup);
    std::optional<ResilienceResult> hit = result_cache_.Lookup(cache_key);
    context->result_cache_probe = hit ? kResultCacheHit : kResultCacheMiss;
    if (hit) {
      // The cached result still names what computed the answer.
      response.result = *std::move(hit);
      response.stats.result_cache_hit = true;
      response.stats.solve_micros = MicrosSince(lookup_start);
      return response;
    }
  }

  // Method dispatch: resolve the per-request overrides against the
  // compiled plan (cheap — the real classification happened at compile).
  obs::ScopedSpan classify_span(trace, obs::SpanKind::kClassify);
  ExactOptions exact_options;
  exact_options.max_search_nodes =
      request_options.max_exact_search_nodes.value_or(
          options_.max_exact_search_nodes);
  exact_options.cancel = cancel;

  // The calling worker's reusable flow arena: in steady state the whole
  // flow path (product sweep, CSR build, Dinic) allocates nothing.
  SolverScratch& scratch = SolverScratch::ThreadLocal();
  classify_span.End();

  // Hand the span sink to the solvers for the duration of this solve.
  // The scratch arena is thread_local and outlives the request, so the
  // pointer MUST be cleared before returning — a later request with
  // tracing off would otherwise write into a dead stack frame.
  scratch.trace = trace;
  auto start = std::chrono::steady_clock::now();
  const int solve_span =
      trace != nullptr ? trace->Begin(obs::SpanKind::kSolve) : -1;
  Result<ResilienceResult> result = [&]() -> Result<ResilienceResult> {
    if (fixed_endpoints) {
      // Thm 3.13 ext: needs tables for L's own RO-εNFA (IF-rewriting is
      // unsound with fixed endpoints, so IF(L)-locality is not enough).
      if (!query.ro_tables_exact.has_value()) {
        return Status::FailedPrecondition(
            "fixed-endpoint resilience requires the query language itself "
            "to be local: " +
            query.language.description() +
            " has no read-once automaton (IF-rewriting is unsound with "
            "fixed endpoints)");
      }
      return SolveLocalResilienceFixedEndpointsWithTables(
          *query.ro_tables_exact, db.db(), *request.source, *request.target,
          query.semantics, db.label_index(), &scratch);
    }
    if (request_options.method.has_value() &&
        *request_options.method != ResilienceMethod::kAuto) {
      // Forced solver (the VCSP-style routing override): a plan of that
      // method on the compiled IF(L). Classification stats still describe
      // the kAuto verdict.
      RPQRES_ASSIGN_OR_RETURN(
          ResiliencePlan forced,
          PlanResilienceWithIF(query.plan.if_language,
                               *request_options.method));
      return ComputeResilienceWithPlan(forced, db.db(), query.semantics,
                                       exact_options, db.label_index(),
                                       &scratch);
    }
    RPQRES_RETURN_IF_ERROR(CheckExponentialFallback(
        query.plan, request_options.allow_exponential.value_or(
                        options_.allow_exponential)));
    return ComputeResilienceWithPlan(query.plan, db.db(), query.semantics,
                                     exact_options, db.label_index(),
                                     &scratch);
  }();
  if (trace != nullptr) trace->End(solve_span);
  scratch.trace = nullptr;
  response.stats.solve_micros = MicrosSince(start);
  if (!result.ok()) {
    response.status = result.status();
  } else {
    response.result = *std::move(result);
    if (cacheable) {
      Count(kResultCacheEviction,
            static_cast<int64_t>(
                result_cache_.Insert(std::move(cache_key), response.result)));
    }
  }
  return response;
}

void ResilienceEngine::RecordInstance(const ResilienceResponse& response,
                                      const RecordContext& context) {
  const StatusCode code = response.status.code();
  const int status_index = StatusIndex(response.status);
  const std::string_view status = kStatusLabels[status_index];
  // Status first: stats() reads the algorithm and result-cache cells
  // before the status cells (see the constructor).
  requests_by_status_[status_index]->Increment();
  const ResilienceResult& result = response.result;
  if (!result.algorithm.empty()) {
    requests_by_algorithm_->WithLabel(result.algorithm).Increment();
  }
  if (context.result_cache_probe.has_value()) {
    Count(*context.result_cache_probe);
  }

  const double total_micros = context.total_micros > 0
                                  ? context.total_micros
                                  : response.stats.solve_micros;
  request_latency_->WithLabel(status).Record(total_micros);
  if (!result.algorithm.empty()) {
    solve_latency_->WithLabel(result.algorithm)
        .Record(response.stats.solve_micros);
  }
  if (context.trace != nullptr) {
    const obs::TraceSpan* spans = context.trace->spans();
    for (int i = 0; i < context.trace->size(); ++i) {
      const obs::TraceSpan& span = spans[i];
      if (span.kind == obs::SpanKind::kRequest || span.duration_ns < 0) {
        continue;
      }
      phase_micros_->WithLabel(obs::SpanKindName(span.kind))
          .Record(static_cast<double>(span.duration_ns) / 1000.0);
    }
  }

  // Slow path only: requests past the threshold, or shed by deadline /
  // cancellation (those are exactly the ones worth a span tree even when
  // they died fast).
  const bool shed = code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kCancelled;
  if (slow_log_.capacity() > 0 &&
      (shed || total_micros >=
                   static_cast<double>(options_.slow_query_threshold_micros))) {
    obs::SlowQueryRecord record;
    if (context.request != nullptr) {
      const ResilienceRequest& request = *context.request;
      if (request.query != nullptr) {
        record.regex = request.query->regex;
        record.semantics =
            request.query->semantics == Semantics::kBag ? "bag" : "set";
      } else {
        record.regex = request.regex;
        record.semantics = request.semantics == Semantics::kBag ? "bag" : "set";
      }
    }
    record.status = std::string(status);
    record.algorithm = result.algorithm;
    record.lineage = context.lineage;
    record.version = context.version;
    record.compile_micros =
        static_cast<int64_t>(response.stats.compile_micros);
    record.solve_micros = static_cast<int64_t>(response.stats.solve_micros);
    record.total_micros = static_cast<int64_t>(total_micros);
    record.network_vertices = result.network_vertices;
    record.network_edges = result.network_edges;
    record.search_nodes = result.search_nodes;
    if (context.trace != nullptr) {
      record.spans_dropped = context.trace->dropped();
      record.spans.assign(context.trace->spans(),
                          context.trace->spans() + context.trace->size());
    }
    slow_log_.Push(std::move(record));
  }
}

EngineStats ResilienceEngine::stats() const {
  return EngineStatsFromMetrics(metrics_.TakeSnapshot());
}

void ResilienceEngine::ResetStats() { metrics_.Reset(); }

std::string ResilienceEngine::ExportMetrics(MetricsFormat format,
                                            const DbRegistry* registry) const {
  obs::MetricsSnapshot snapshot = TakeMetricsSnapshot(registry);
  return format == MetricsFormat::kPrometheus ? obs::ToPrometheusText(snapshot)
                                              : obs::ToJson(snapshot);
}

obs::MetricsSnapshot ResilienceEngine::TakeMetricsSnapshot(
    const DbRegistry* registry) const {
  obs::MetricsSnapshot snapshot = metrics_.TakeSnapshot();
  auto add_gauge = [&snapshot](std::string_view name, std::string_view help,
                               double value) {
    snapshot.gauges.push_back(
        obs::GaugeSample{std::string(name), std::string(help), value});
  };
  add_gauge("rpqres_plan_cache_entries", "Compiled plans resident in the LRU.",
            static_cast<double>(cache_.size()));
  add_gauge("rpqres_result_cache_entries",
            "Cached resilience answers resident.",
            static_cast<double>(result_cache_.size()));
  add_gauge("rpqres_result_cache_bytes",
            "Accounted byte footprint of cached answers.",
            static_cast<double>(result_cache_.size_bytes()));
  add_gauge("rpqres_slow_query_log_entries",
            "Slow-query records currently retained.",
            static_cast<double>(slow_log_.size()));
  if (registry != nullptr) {
    const DbRegistry::Gauges g = registry->gauges();
    add_gauge("rpqres_db_lineages", "Registered database lineages.",
              static_cast<double>(g.lineages));
    add_gauge("rpqres_db_snapshots",
              "Registered snapshots across all versions.",
              static_cast<double>(g.snapshots));
    add_gauge("rpqres_db_max_version_depth",
              "Most resident versions in any one lineage.",
              static_cast<double>(g.max_version_depth));
    add_gauge("rpqres_db_nodes", "Nodes across latest versions.",
              static_cast<double>(g.nodes));
    add_gauge("rpqres_db_live_facts", "Live facts across latest versions.",
              static_cast<double>(g.live_facts));
    add_gauge("rpqres_db_dead_facts",
              "Tombstoned fact ids across latest versions.",
              static_cast<double>(g.dead_facts));
    add_gauge("rpqres_db_overlay_facts",
              "Copy-on-write overlay adds+tombstones across latest versions.",
              static_cast<double>(g.overlay_facts));
    if (g.storage_persistent != 0) {
      // Exported only for persistent registries, so a non-persistent
      // deployment's exposition is byte-identical to earlier releases.
      add_gauge("rpqres_db_storage_segment_bytes",
                "On-disk bytes across lineage base segments.",
                static_cast<double>(g.storage_segment_bytes));
      add_gauge("rpqres_db_storage_journal_records",
                "Records across live delta journals.",
                static_cast<double>(g.storage_journal_records));
      add_gauge("rpqres_db_storage_journal_bytes",
                "On-disk bytes across live delta journals.",
                static_cast<double>(g.storage_journal_bytes));
      add_gauge("rpqres_db_storage_replay_micros",
                "Microseconds the last journal replay (Restore) took.",
                static_cast<double>(g.storage_replay_micros));
      add_gauge("rpqres_db_storage_health",
                "Storage health (0 healthy, 1 degraded read-only, 2 failed).",
                static_cast<double>(g.storage_health));
      add_gauge("rpqres_db_storage_swept_tmp_files",
                "Leftover *.tmp files swept by the last Restore.",
                static_cast<double>(g.storage_swept_tmp_files));
      // Emitted only once a write attempt has failed, so a fault-free
      // deployment's exposition is unchanged.
      const auto faults = registry->storage_fault_counts();
      if (!faults.empty()) {
        obs::CounterFamily::Snapshot family;
        family.name = "rpqres_storage_faults_total";
        family.help = "Failed storage write attempts by operation.";
        family.label_key = "op";
        for (const auto& [op, count] : faults) {
          family.samples.push_back({op, count});
        }
        snapshot.counters.push_back(std::move(family));
      }
    }
  }
  return snapshot;
}

std::vector<obs::SlowQueryRecord> ResilienceEngine::slow_queries() const {
  return slow_log_.Dump();
}

PlanCacheView ResilienceEngine::plan_cache_view() const {
  return PlanCacheView{cache_.size(), cache_.capacity()};
}

ResultCacheView ResilienceEngine::result_cache_view() const {
  return ResultCacheView{result_cache_.size(), result_cache_.capacity(),
                         result_cache_.size_bytes(),
                         result_cache_.max_bytes()};
}

int64_t ResilienceEngine::InvalidateResults(uint64_t lineage,
                                            std::optional<uint32_t> version) {
  const int64_t dropped = version.has_value()
                              ? result_cache_.EraseVersion(lineage, *version)
                              : result_cache_.EraseLineage(lineage);
  Count(kResultCacheInvalidation, dropped);
  return dropped;
}

}  // namespace rpqres
