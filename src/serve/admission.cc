#include "serve/admission.h"

#include <string>

namespace rpqres::serve {

/// Completed-request samples a shard's histogram needs before the
/// predictive deadline check activates; below this only already-expired
/// deadlines shed (cold shards must not guess).
constexpr uint64_t kMinPredictSamples = 32;

std::string_view AdmissionDecisionName(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmitted:
      return "admitted";
    case AdmissionDecision::kShedDeadlineExpired:
      return "shed_deadline_expired";
    case AdmissionDecision::kShedDeadlineUnmeetable:
      return "shed_deadline_unmeetable";
    case AdmissionDecision::kShedShardSaturated:
      return "shed_shard_saturated";
    case AdmissionDecision::kShedTenantCap:
      return "shed_tenant_cap";
    case AdmissionDecision::kShedShardUnavailable:
      return "shed_shard_unavailable";
  }
  return "unknown";
}

Status AdmissionStatus(AdmissionDecision decision, int shard) {
  const std::string where = "shard " + std::to_string(shard);
  switch (decision) {
    case AdmissionDecision::kAdmitted:
      return Status::OK();
    case AdmissionDecision::kShedDeadlineExpired:
      return Status::DeadlineExceeded("shed at admission (" + where +
                                      "): deadline already expired");
    case AdmissionDecision::kShedDeadlineUnmeetable:
      return Status::DeadlineExceeded(
          "shed at admission (" + where +
          "): deadline unmeetable at observed latencies");
    case AdmissionDecision::kShedShardSaturated:
      return Status::ResourceExhausted("shed at admission (" + where +
                                       "): shard in-flight bound reached");
    case AdmissionDecision::kShedTenantCap:
      return Status::ResourceExhausted("shed at admission (" + where +
                                       "): tenant in-flight cap reached");
    case AdmissionDecision::kShedShardUnavailable:
      return Status::Unavailable("shed at admission (" + where +
                                 "): shard storage unavailable");
  }
  return Status::Internal("unknown admission decision");
}

AdmissionController::AdmissionController(int num_shards, int threads_per_shard,
                                         AdmissionOptions options)
    : options_(options),
      threads_per_shard_(threads_per_shard < 1 ? 1 : threads_per_shard) {
  if (num_shards < 1) num_shards = 1;
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
}

AdmissionController::TenantState& AdmissionController::Tenant(
    std::string_view tenant) {
  {
    SharedReaderLock lock(tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second;
  }
  SharedMutexLock lock(tenants_mu_);
  return tenants_.try_emplace(std::string(tenant)).first->second;
}

AdmissionDecision AdmissionController::TryAdmit(
    int shard, std::string_view tenant,
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    Ticket* ticket) {
  ShardState& shard_state = *shards_[shard];

  const auto now = std::chrono::steady_clock::now();
  if (deadline.has_value() && *deadline <= now) {
    return AdmissionDecision::kShedDeadlineExpired;
  }

  // Optimistically take the shard slot, undo on any later refusal — two
  // concurrent admits never both squeeze past the bound this way.
  const int64_t shard_held = shard_state.inflight.fetch_add(1) + 1;
  if (shard_held > options_.max_inflight_per_shard) {
    shard_state.inflight.fetch_sub(1);
    return AdmissionDecision::kShedShardSaturated;
  }

  TenantState& tenant_state = Tenant(tenant);
  const int64_t tenant_held = tenant_state.inflight.fetch_add(1) + 1;
  if (tenant_held > options_.max_inflight_per_tenant) {
    tenant_state.inflight.fetch_sub(1);
    shard_state.inflight.fetch_sub(1);
    return AdmissionDecision::kShedTenantCap;
  }

  if (deadline.has_value()) {
    const obs::LatencyHistogram::Snapshot observed =
        shard_state.latency.TakeSnapshot();
    if (observed.total_count >= kMinPredictSamples) {
      // Service estimate: p95 of completed requests. Queue estimate: the
      // requests already in flight ahead of us drain at roughly p50 per
      // pool thread. Both are lower bounds from a live histogram, so the
      // check only sheds requests that would very likely die anyway.
      const double queued_ahead = static_cast<double>(shard_held - 1);
      const double predicted_micros =
          observed.Quantile(0.95) +
          observed.Quantile(0.50) * (queued_ahead /
                                     static_cast<double>(threads_per_shard_));
      const auto predicted_done =
          now + std::chrono::microseconds(
                    static_cast<int64_t>(predicted_micros));
      if (predicted_done > *deadline) {
        tenant_state.inflight.fetch_sub(1);
        shard_state.inflight.fetch_sub(1);
        return AdmissionDecision::kShedDeadlineUnmeetable;
      }
    }
  }

  ticket->shard = shard;
  ticket->tenant = &tenant_state;
  return AdmissionDecision::kAdmitted;
}

void AdmissionController::Complete(const Ticket& ticket, double total_micros) {
  if (!ticket.valid()) return;
  ShardState& shard_state = *shards_[ticket.shard];
  shard_state.latency.Record(total_micros);
  shard_state.inflight.fetch_sub(1);
  static_cast<TenantState*>(ticket.tenant)->inflight.fetch_sub(1);
}

int64_t AdmissionController::shard_inflight(int shard) const {
  return shards_[shard]->inflight.load();
}

int64_t AdmissionController::tenant_inflight(std::string_view tenant) const {
  SharedReaderLock lock(tenants_mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.inflight.load();
}

obs::LatencyHistogram::Snapshot AdmissionController::ShardLatency(
    int shard) const {
  return shards_[shard]->latency.TakeSnapshot();
}

std::vector<std::string> AdmissionController::tenants() const {
  SharedReaderLock lock(tenants_mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, state] : tenants_) names.push_back(name);
  return names;
}

}  // namespace rpqres::serve
