// rpqres — serve/router: multi-tenant front door over a ShardedRegistry.
//
// The Router is what callers talk to in a sharded deployment:
//
//   serve::ShardedRegistry shards(4);
//   serve::Router router(&shards);
//   auto f = router.Submit({.tenant = "acme", .request = {...}});
//
// Per request it (1) resolves the target lineage to its home shard —
// by db_ref name, or by the pre-resolved handle's name — (2) runs the
// AdmissionController (bounded shard queue, per-tenant cap, deadline
// shedding), and (3) on admit hands the request to that shard's engine,
// releasing the admission slots from the engine worker the instant the
// request completes. A shed request never touches an engine: its future
// resolves immediately with kDeadlineExceeded / kResourceExhausted, the
// shed lands in the router's slow-query log with an admission-only span
// tree, and the decision is counted in router metrics.
//
// The Router also merges the fleet into one view:
//   * engine_stats()      — EngineStats of the shard="all" roll-ups of
//     every shard's engine metrics (EngineStatsFromMetrics);
//   * TakeMetricsSnapshot — every shard's series tagged shard="i" plus
//     shard="all" roll-ups (obs::MergeShardSnapshots), with the
//     router's own admission/event/tenant families appended;
//   * slow_queries()      — shard logs plus the router's shed log.
//
// Lifetime: the Router must outlive its in-flight requests (completion
// callbacks run on engine workers); the destructor Drain()s, so normal
// destruction order — router before shards — is safe.

#ifndef RPQRES_SERVE_ROUTER_H_
#define RPQRES_SERVE_ROUTER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "serve/admission.h"
#include "serve/sharded_registry.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres::serve {

/// One tenant-attributed unit of serving work.
struct ServeRequest {
  std::string tenant;
  ResilienceRequest request;
};

struct RouterOptions {
  AdmissionOptions admission;
  /// Capacity of the router's shed log (every shed is recorded; the ring
  /// keeps the most recent ones).
  size_t shed_log_capacity = 256;
};

/// Router-level counters: a view of the router's metric cells, read
/// without a lock. Each admission decision is counted once, in
/// rpqres_router_admission_total{decision}, and `submitted` is defined
/// from those same reads as admitted + sheds(), so the balance holds in
/// every snapshot. Commits shed by the health gate are sheds, so they
/// count in `submitted` too. `completed` is read before `admitted`, so
/// completed <= admitted holds in every snapshot as well.
struct RouterStats {
  int64_t submitted = 0;  ///< admitted + sheds(), shed commits included
  int64_t admitted = 0;
  int64_t completed = 0;  ///< admitted requests whose engine run finished
  int64_t shed_deadline_expired = 0;
  int64_t shed_deadline_unmeetable = 0;
  int64_t shed_shard_saturated = 0;
  int64_t shed_tenant_cap = 0;
  /// Reads refused because the home shard's storage failed outright, plus
  /// commits refused because it is degraded or failed. Degraded shards
  /// still serve reads — only writes shed here.
  int64_t shed_shard_unavailable = 0;

  int64_t commits_applied = 0;
  /// Commits that reached a healthy-looking shard but came back
  /// kUnavailable (storage faulted mid-commit; the registry rolled the
  /// version back and degraded itself).
  int64_t commits_unavailable = 0;

  int64_t sheds() const {
    return shed_deadline_expired + shed_deadline_unmeetable +
           shed_shard_saturated + shed_tenant_cap + shed_shard_unavailable;
  }
};

class Router {
 public:
  explicit Router(ShardedRegistry* shards, RouterOptions options = {});
  /// Waits for all admitted requests to complete (Drain).
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes, admits, and (if admitted) submits to the home shard's
  /// engine. The future resolves to the engine's response, or — on a
  /// shed — immediately to a response whose status is the admission
  /// status; a shed response carries no result.
  std::future<ResilienceResponse> Submit(ServeRequest request);

  /// Fans the batch out per shard; futures[i] corresponds to
  /// requests[i]. Requests route independently — one batch may span
  /// every shard.
  std::vector<std::future<ResilienceResponse>> SubmitBatch(
      std::vector<ServeRequest> requests);

  /// Submit + wait, for synchronous callers.
  ResilienceResponse Evaluate(ServeRequest request);

  /// Routes a write to `db_ref`'s home shard and applies `mutate` to a
  /// fresh DeltaBatch on the lineage's latest version, committing the
  /// result. Health-gated: a degraded or failed shard sheds the commit
  /// with kUnavailable before any batch is built (reads keep flowing to
  /// degraded shards via Submit). A commit that faults mid-flight comes
  /// back kUnavailable too — the registry rolled it back and degraded.
  Result<DbHandle> Commit(std::string_view tenant, std::string_view db_ref,
                          const std::function<Status(DeltaBatch*)>& mutate);

  /// Blocks until no admitted request is in flight.
  void Drain() RPQRES_EXCLUDES(drain_mu_);

  /// Fleet EngineStats: the shard="all" roll-ups of every shard engine's
  /// metrics, so each field is the sum of the shards' fields.
  EngineStats engine_stats() const;
  RouterStats stats() const;

  /// Fleet metrics: per-shard engine series tagged shard="i", shard="all"
  /// roll-ups, per-shard registry gauges, and router-level admission and
  /// tenant families.
  obs::MetricsSnapshot TakeMetricsSnapshot() const;
  std::string ExportMetrics(MetricsFormat format) const;

  /// Sheds recorded by the router (admission-only span trees).
  std::vector<obs::SlowQueryRecord> shed_queries() const;
  /// Every retained slow/shed record: each shard's engine log followed
  /// by the router's shed log.
  std::vector<obs::SlowQueryRecord> slow_queries() const;

  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  ShardedRegistry& shards() { return *shards_; }
  const RouterOptions& options() const { return options_; }

 private:
  /// Home shard for a request: db_ref name if present, else the
  /// handle's lineage name.
  int RouteShard(const ResilienceRequest& request) const;
  void RecordShed(AdmissionDecision decision, const ServeRequest& request,
                  const Status& status, int64_t admission_micros,
                  const obs::TraceContext& trace);
  obs::ShardedCounter& DecisionCell(AdmissionDecision decision) const {
    return *decisions_[static_cast<size_t>(decision)];
  }

  ShardedRegistry* const shards_;
  const RouterOptions options_;
  AdmissionController admission_;

  /// The router's one counter source. The events family registers before
  /// the admission family, so snapshots read `completed` before
  /// `admitted` (see RouterStats).
  obs::MetricsRegistry metrics_;
  obs::ShardedCounter* const completed_;           // rpqres_router_events_total
  obs::ShardedCounter* const commits_applied_;     // rpqres_router_events_total
  obs::ShardedCounter* const commits_unavailable_; // rpqres_router_events_total
  /// rpqres_router_admission_total cells, indexed by AdmissionDecision.
  const std::array<obs::ShardedCounter*, kNumAdmissionDecisions> decisions_;
  obs::CounterFamily* const tenant_requests_;
  obs::CounterFamily* const tenant_sheds_;
  obs::HistogramFamily* const tenant_latency_;

  obs::SlowQueryLog shed_log_;

  /// Admitted-but-not-completed count. Atomic (not guarded): completion
  /// callbacks decrement it on engine workers; Drain reads it under
  /// drain_mu_ only to pair with the condvar, the counter itself needs no
  /// lock.
  std::atomic<int64_t> inflight_{0};
  rpqres::Mutex drain_mu_;
  rpqres::CondVar drain_cv_;
};

}  // namespace rpqres::serve

#endif  // RPQRES_SERVE_ROUTER_H_
