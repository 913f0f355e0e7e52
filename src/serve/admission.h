// rpqres — serve/admission: per-shard and per-tenant admission control.
//
// The front end must refuse work it cannot finish in time INSTEAD of
// queueing it to die inside a solver. The AdmissionController decides,
// at submit time and in O(1), whether a request may enter a shard:
//
//  * bounded per-shard in-flight queue — once a shard holds
//    max_inflight_per_shard requests, further arrivals shed with
//    kResourceExhausted instead of growing the pool's unbounded queue;
//  * per-tenant in-flight cap — one tenant flooding the fleet exhausts
//    its own allowance (kResourceExhausted) while other tenants' slots
//    stay untouched; serve_admission_test pins the isolation property;
//  * deadline-aware shedding — a request whose deadline is already past,
//    or whose deadline cannot be met given the shard's OBSERVED latency
//    distribution (p95 service estimate plus a p50-per-queued-request
//    drain estimate, once the shard has 32 completed samples), sheds
//    immediately with kDeadlineExceeded. This
//    extends the engine's CancelToken deadline plumbing upstream: the
//    engine stops work at the deadline, the controller refuses work that
//    would only burn cycles before that stop.
//
// A shed request never reaches an engine: no solver runs, no engine
// counter moves; the Router records the shed in its own log/metrics.
// Admission state is a pair of atomics per shard/tenant plus a
// wait-free latency histogram — the controller adds nanoseconds, not
// milliseconds, to the submit path.

#ifndef RPQRES_SERVE_ADMISSION_H_
#define RPQRES_SERVE_ADMISSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres::serve {

struct AdmissionOptions {
  /// In-flight requests a shard holds before shedding (admitted but not
  /// yet completed, whether queued or executing).
  int64_t max_inflight_per_shard = 1024;
  /// In-flight requests one tenant may hold across the fleet.
  int64_t max_inflight_per_tenant = 256;
};

/// Outcome of one admission decision, most specific reason wins.
enum class AdmissionDecision {
  kAdmitted = 0,
  kShedDeadlineExpired,     ///< deadline already past at submit
  kShedDeadlineUnmeetable,  ///< predicted completion misses the deadline
  kShedShardSaturated,      ///< per-shard in-flight bound hit
  kShedTenantCap,           ///< per-tenant in-flight cap hit
  kShedShardUnavailable,    ///< shard storage degraded/failed (router health
                            ///< check, not the controller: commits shed on
                            ///< degraded shards, everything on failed ones)
};
/// AdmissionDecision values run 0 .. kNumAdmissionDecisions - 1.
inline constexpr int kNumAdmissionDecisions = 6;

/// Stable lowercase name ("admitted", "shed_tenant_cap", ...) for the
/// router's decision-labelled counter.
std::string_view AdmissionDecisionName(AdmissionDecision decision);

/// The Status a shed decision turns into (OK for kAdmitted): deadline
/// sheds map to kDeadlineExceeded, capacity sheds to kResourceExhausted.
Status AdmissionStatus(AdmissionDecision decision, int shard);

class AdmissionController {
 public:
  /// `threads_per_shard` is each shard's engine pool width — the service
  /// rate denominator of the queue-drain estimate.
  AdmissionController(int num_shards, int threads_per_shard,
                      AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// An admitted request's slot; must be returned via Complete exactly
  /// once. Default-constructed tickets are invalid (sheds carry none).
  struct Ticket {
    int shard = -1;
    void* tenant = nullptr;  ///< opaque TenantState*
    bool valid() const { return shard >= 0; }
  };

  /// Decides admission of one request for `shard`. On kAdmitted the
  /// shard/tenant slots are held and `*ticket` is filled; on any shed
  /// nothing is held. Never blocks.
  AdmissionDecision TryAdmit(
      int shard, std::string_view tenant,
      const std::optional<std::chrono::steady_clock::time_point>& deadline,
      Ticket* ticket);

  /// Releases an admitted request's slots and feeds its end-to-end
  /// latency into the shard's observed distribution.
  void Complete(const Ticket& ticket, double total_micros);

  int64_t shard_inflight(int shard) const;
  int64_t tenant_inflight(std::string_view tenant) const
      RPQRES_EXCLUDES(tenants_mu_);
  /// Observed end-to-end latency of completed requests on `shard`.
  obs::LatencyHistogram::Snapshot ShardLatency(int shard) const;
  /// Tenants seen so far, sorted.
  std::vector<std::string> tenants() const RPQRES_EXCLUDES(tenants_mu_);

  const AdmissionOptions& options() const { return options_; }
  int threads_per_shard() const { return threads_per_shard_; }

 private:
  struct ShardState {
    std::atomic<int64_t> inflight{0};
    obs::LatencyHistogram latency;
  };
  struct TenantState {
    std::atomic<int64_t> inflight{0};
  };

  TenantState& Tenant(std::string_view tenant) RPQRES_EXCLUDES(tenants_mu_);

  const AdmissionOptions options_;
  const int threads_per_shard_;
  /// Set in the constructor, never resized; the cells are atomics plus a
  /// wait-free histogram, so slot traffic never takes a lock.
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Guards the tenant map shape, not the cells (map nodes are stable and
  /// each TenantState is one atomic).
  mutable rpqres::SharedMutex tenants_mu_;
  std::map<std::string, TenantState, std::less<>> tenants_
      RPQRES_GUARDED_BY(tenants_mu_);
};

}  // namespace rpqres::serve

#endif  // RPQRES_SERVE_ADMISSION_H_
