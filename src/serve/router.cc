#include "serve/router.h"

#include <iterator>
#include <string_view>
#include <utility>

#include "obs/export.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace rpqres::serve {

namespace {

std::string_view ShedStatusLabel(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kUnavailable:
      return "unavailable";
    default:
      return "error";
  }
}

/// A cell of rpqres_router_events_total (the family registers on first
/// call).
obs::ShardedCounter* RouterEvent(obs::MetricsRegistry& metrics,
                                 std::string_view event) {
  return &metrics
              .Counter("rpqres_router_events_total",
                       "Router events: completed admitted requests, and "
                       "commits applied or refused unavailable",
                       "event")
              ->WithLabel(event);
}

int ThreadsPerShard(const ShardedRegistry& shards) {
  const int configured = shards.engine(0).options().num_threads;
  return configured > 0 ? configured : ThreadPool::DefaultNumThreads();
}

}  // namespace

Router::Router(ShardedRegistry* shards, RouterOptions options)
    : shards_(shards),
      options_(options),
      admission_(shards->num_shards(), ThreadsPerShard(*shards),
                 options.admission),
      completed_(RouterEvent(metrics_, "completed")),
      commits_applied_(RouterEvent(metrics_, "commit_applied")),
      commits_unavailable_(RouterEvent(metrics_, "commit_unavailable")),
      decisions_([this] {
        obs::CounterFamily* family = metrics_.Counter(
            "rpqres_router_admission_total",
            "Admission decisions by outcome (admitted / shed_*)", "decision");
        std::array<obs::ShardedCounter*, kNumAdmissionDecisions> cells{};
        for (int i = 0; i < kNumAdmissionDecisions; ++i) {
          cells[i] = &family->WithLabel(
              AdmissionDecisionName(static_cast<AdmissionDecision>(i)));
        }
        return cells;
      }()),
      tenant_requests_(metrics_.Counter("rpqres_router_tenant_requests_total",
                                        "Requests submitted per tenant",
                                        "tenant")),
      tenant_sheds_(metrics_.Counter("rpqres_router_tenant_sheds_total",
                                     "Requests shed at admission per tenant",
                                     "tenant")),
      tenant_latency_(metrics_.Histogram(
          "rpqres_router_tenant_latency_micros",
          "End-to-end latency of completed requests per tenant", "tenant")),
      shed_log_(options.shed_log_capacity) {}

Router::~Router() { Drain(); }

int Router::RouteShard(const ResilienceRequest& request) const {
  if (!request.db_ref.empty()) return shards_->ShardForRef(request.db_ref);
  if (request.db.valid()) return shards_->ShardForHandle(request.db);
  // No database at all: let shard 0's engine produce the error.
  return 0;
}

std::future<ResilienceResponse> Router::Submit(ServeRequest serve) {
  ResilienceRequest& request = serve.request;
  const int shard = RouteShard(request);
  if (!request.db_ref.empty()) {
    // Name resolution must happen against the home shard's registry;
    // whatever registry the caller set cannot know the placement.
    request.registry = &shards_->registry(shard);
  }
  tenant_requests_->WithLabel(serve.tenant).Increment();

  obs::TraceContext trace;
  const int span = trace.Begin(obs::SpanKind::kAdmission);
  AdmissionController::Ticket ticket;
  AdmissionDecision decision;
  if (shards_->registry(shard).health() == HealthState::kFailed) {
    // A failed shard cannot answer anything trustworthy; a degraded one
    // still serves reads from memory, so only kFailed sheds here.
    decision = AdmissionDecision::kShedShardUnavailable;
  } else {
    decision = admission_.TryAdmit(shard, serve.tenant,
                                   request.options.deadline, &ticket);
  }
  trace.End(span);
  DecisionCell(decision).Increment();

  if (decision != AdmissionDecision::kAdmitted) {
    const Status status = AdmissionStatus(decision, shard);
    tenant_sheds_->WithLabel(serve.tenant).Increment();
    const int64_t admission_micros =
        trace.size() > 0 ? trace.spans()[0].duration_ns / 1000 : 0;
    RecordShed(decision, serve, status, admission_micros, trace);

    ResilienceResponse response;
    response.status = status;
    std::promise<ResilienceResponse> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
  }

  inflight_.fetch_add(1);
  const auto start = std::chrono::steady_clock::now();
  return shards_->engine(shard).Submit(
      std::move(request),
      [this, ticket, start, tenant = std::move(serve.tenant)](
          const ResilienceResponse& response) {
        (void)response;
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        admission_.Complete(ticket, micros);
        tenant_latency_->WithLabel(tenant).Record(micros);
        completed_->Increment();
        inflight_.fetch_sub(1);
        {
          // Empty critical section: pairs the decrement with Drain's
          // locked re-check so the notify can't be missed.
          MutexLock lock(drain_mu_);
        }
        drain_cv_.NotifyAll();
      });
}

std::vector<std::future<ResilienceResponse>> Router::SubmitBatch(
    std::vector<ServeRequest> requests) {
  std::vector<std::future<ResilienceResponse>> futures;
  futures.reserve(requests.size());
  for (ServeRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

ResilienceResponse Router::Evaluate(ServeRequest request) {
  return Submit(std::move(request)).get();
}

Result<DbHandle> Router::Commit(
    std::string_view tenant, std::string_view db_ref,
    const std::function<Status(DeltaBatch*)>& mutate) {
  const int shard = shards_->ShardForRef(db_ref);
  tenant_requests_->WithLabel(tenant).Increment();

  const HealthState health = shards_->registry(shard).health();
  if (health != HealthState::kHealthy) {
    const Status status = Status::Unavailable(
        "Commit shed: shard " + std::to_string(shard) + " storage is " +
        std::string(HealthStateName(health)));
    DecisionCell(AdmissionDecision::kShedShardUnavailable).Increment();
    tenant_sheds_->WithLabel(tenant).Increment();
    // Synthetic shed record: no query ran, surface the write target and
    // the health reason where the regex/algorithm would be.
    obs::SlowQueryRecord record;
    record.regex = "commit:" + std::string(db_ref);
    record.semantics = "write";
    record.status = std::string(ShedStatusLabel(status));
    record.algorithm = std::string(
        AdmissionDecisionName(AdmissionDecision::kShedShardUnavailable));
    shed_log_.Push(std::move(record));
    return status;
  }

  DbRegistry& registry = shards_->registry(shard);
  Result<DbHandle> latest = registry.Resolve(db_ref);
  if (!latest.ok()) return latest.status();
  DeltaBatch batch = registry.BeginDelta(*latest);
  const Status mutated = mutate(&batch);
  if (!mutated.ok()) return mutated;
  Result<DbHandle> committed = batch.Commit();
  if (committed.ok()) {
    commits_applied_->Increment();
  } else if (committed.status().code() == StatusCode::kUnavailable) {
    commits_unavailable_->Increment();
  }
  return committed;
}

void Router::Drain() {
  MutexLock lock(drain_mu_);
  while (inflight_.load() != 0) drain_cv_.Wait(drain_mu_);
}

void Router::RecordShed(AdmissionDecision decision, const ServeRequest& serve,
                        const Status& status, int64_t admission_micros,
                        const obs::TraceContext& trace) {
  obs::SlowQueryRecord record;
  record.regex = serve.request.query != nullptr ? serve.request.query->regex
                                                : serve.request.regex;
  record.semantics =
      (serve.request.query != nullptr
           ? serve.request.query->semantics
           : serve.request.semantics) == Semantics::kBag
          ? "bag"
          : "set";
  record.status = std::string(ShedStatusLabel(status));
  // No solver ran; surface the shed reason where the algorithm would be.
  record.algorithm = std::string(AdmissionDecisionName(decision));
  record.total_micros = admission_micros;
  record.spans_dropped = trace.dropped();
  record.spans.assign(trace.spans(), trace.spans() + trace.size());
  shed_log_.Push(std::move(record));
}

EngineStats Router::engine_stats() const {
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_->num_shards());
  for (int i = 0; i < shards_->num_shards(); ++i) {
    per_shard.push_back(shards_->engine(i).TakeMetricsSnapshot());
  }
  return EngineStatsFromMetrics(obs::MergeShardSnapshots(std::move(per_shard)),
                                "all");
}

RouterStats Router::stats() const {
  RouterStats stats;
  // `completed` first: a request's admitted cell is bumped before its
  // engine run can complete (see RouterStats).
  stats.completed = completed_->value();
  stats.commits_applied = commits_applied_->value();
  stats.commits_unavailable = commits_unavailable_->value();
  stats.admitted = DecisionCell(AdmissionDecision::kAdmitted).value();
  stats.shed_deadline_expired =
      DecisionCell(AdmissionDecision::kShedDeadlineExpired).value();
  stats.shed_deadline_unmeetable =
      DecisionCell(AdmissionDecision::kShedDeadlineUnmeetable).value();
  stats.shed_shard_saturated =
      DecisionCell(AdmissionDecision::kShedShardSaturated).value();
  stats.shed_tenant_cap =
      DecisionCell(AdmissionDecision::kShedTenantCap).value();
  stats.shed_shard_unavailable =
      DecisionCell(AdmissionDecision::kShedShardUnavailable).value();
  stats.submitted = stats.admitted + stats.sheds();
  return stats;
}

obs::MetricsSnapshot Router::TakeMetricsSnapshot() const {
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_->num_shards());
  for (int i = 0; i < shards_->num_shards(); ++i) {
    per_shard.push_back(
        shards_->engine(i).TakeMetricsSnapshot(&shards_->registry(i)));
  }
  obs::MetricsSnapshot merged = obs::MergeShardSnapshots(std::move(per_shard));

  obs::MetricsSnapshot own = metrics_.TakeSnapshot();
  for (auto& family : own.counters) {
    merged.counters.push_back(std::move(family));
  }
  for (auto& family : own.histograms) {
    merged.histograms.push_back(std::move(family));
  }
  // Each family's shard gauges stay adjacent: the exporter writes one
  // HELP/TYPE header per run of equal names.
  for (int i = 0; i < shards_->num_shards(); ++i) {
    merged.gauges.push_back(
        {"rpqres_router_shard_inflight",
         "Admitted requests currently in flight on the shard",
         static_cast<double>(admission_.shard_inflight(i)),
         std::to_string(i)});
  }
  for (int i = 0; i < shards_->num_shards(); ++i) {
    merged.gauges.push_back(
        {"rpqres_shard_health",
         "Shard storage health (0 healthy, 1 degraded read-only, 2 failed)",
         static_cast<double>(static_cast<int>(shards_->registry(i).health())),
         std::to_string(i)});
  }
  merged.gauges.push_back({"rpqres_router_shed_log_entries",
                           "Shed records currently retained by the router",
                           static_cast<double>(shed_log_.size())});
  return merged;
}

std::string Router::ExportMetrics(MetricsFormat format) const {
  const obs::MetricsSnapshot snapshot = TakeMetricsSnapshot();
  return format == MetricsFormat::kPrometheus ? obs::ToPrometheusText(snapshot)
                                              : obs::ToJson(snapshot);
}

std::vector<obs::SlowQueryRecord> Router::shed_queries() const {
  return shed_log_.Dump();
}

std::vector<obs::SlowQueryRecord> Router::slow_queries() const {
  std::vector<obs::SlowQueryRecord> all;
  for (int i = 0; i < shards_->num_shards(); ++i) {
    std::vector<obs::SlowQueryRecord> shard = shards_->engine(i).slow_queries();
    all.insert(all.end(), std::make_move_iterator(shard.begin()),
               std::make_move_iterator(shard.end()));
  }
  std::vector<obs::SlowQueryRecord> sheds = shed_log_.Dump();
  all.insert(all.end(), std::make_move_iterator(sheds.begin()),
             std::make_move_iterator(sheds.end()));
  return all;
}

}  // namespace rpqres::serve
