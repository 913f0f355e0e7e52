#include "client.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

namespace perfbench {

using rpqres::ResilienceResponse;
using rpqres::serve::ServeRequest;

void ClientStats::Merge(const ClientStats& other) {
  if (windows.size() < other.windows.size()) {
    windows.resize(other.windows.size());
  }
  for (size_t w = 0; w < other.windows.size(); ++w) {
    windows[w].latency.Merge(other.windows[w].latency);
    windows[w].last_done =
        std::max(windows[w].last_done, other.windows[w].last_done);
    windows[w].reference_us.insert(windows[w].reference_us.end(),
                                   other.windows[w].reference_us.begin(),
                                   other.windows[w].reference_us.end());
  }
  tally.Merge(other.tally);
  attempted += other.attempted;
  errors += other.errors;
  trace.Merge(other.trace);
  if (witnesses.size() < other.witnesses.size()) {
    witnesses.resize(other.witnesses.size());
  }
  for (size_t i = 0; i < other.witnesses.size(); ++i) {
    if (!witnesses[i] && other.witnesses[i]) witnesses[i] = other.witnesses[i];
  }
}

ClientStats::Window& ClientStats::current() {
  if (windows.size() <= window) windows.resize(window + 1);
  return windows[window];
}

void RouterRead(rpqres::serve::Router& router, const std::string& tenant,
                const std::string& regex, const std::string& db_ref,
                rpqres::Semantics semantics, size_t pair, bool traced,
                ClientStats* stats) {
  ServeRequest request;
  request.tenant = tenant;
  request.request.regex = regex;
  request.request.db_ref = db_ref;
  request.request.semantics = semantics;
  ResilienceResponse response;
  if (traced) {
    rpqres::obs::TraceContext trace;
    request.request.options.trace = &trace;
    const Clock::time_point start = Clock::now();
    std::future<ResilienceResponse> future = router.Submit(std::move(request));
    const Clock::time_point submitted = Clock::now();
    response = future.get();
    const Clock::time_point done = Clock::now();
    stats->trace.Add(trace, MicrosBetween(start, submitted),
                     MicrosBetween(start, done),
                     response.stats.result_cache_hit);
  } else {
    const Clock::time_point start = Clock::now();
    response = router.Evaluate(std::move(request));
    const Clock::time_point done = Clock::now();
    ClientStats::Window& window = stats->current();
    window.latency.Record(MicrosBetween(start, done));
    window.last_done = std::max(window.last_done, done);
  }
  ++stats->attempted;
  if (!response.status.ok()) {
    ++stats->errors;
    return;
  }
  stats->tally.Record(pair, AnswerCode(response.result));
  if (stats->keep_witnesses && !stats->witnesses[pair]) {
    stats->witnesses[pair] = std::move(response.result);
  }
}

void CommitStats::Merge(const CommitStats& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
  staged.insert(staged.end(), other.staged.begin(), other.staged.end());
  attempted += other.attempted;
  failed += other.failed;
}

void CommitAndRetire(const rpqres::workload::TrafficOp& op,
                     rpqres::DbRegistry* registry, Clock::time_point due,
                     bool traced, CommitStats* stats) {
  const rpqres::Result<rpqres::DbHandle> parent = registry->Resolve(op.db_ref);
  const Clock::time_point issued = Clock::now();
  rpqres::Status status;
  if (traced) {
    StagedCommit staged = ApplyCommitStaged(op, registry);
    status = staged.status;
    stats->staged.push_back(std::move(staged));
  } else {
    status = rpqres::workload::TrafficTrace::ApplyCommit(op, registry);
  }
  stats->latency_us.push_back(MicrosBetween(due, Clock::now()));
  stats->lag_us.push_back(MicrosBetween(due, issued));
  ++stats->attempted;
  if (!status.ok()) ++stats->failed;
  if (status.ok() && parent.ok()) (void)registry->Unregister(parent->id());
}

void CommitProbe::Setup(rpqres::serve::ShardedRegistry* shards, uint64_t seed,
                        bool tiny) {
  rpqres::workload::TrafficOptions options = ServeTrafficOptions(tiny);
  options.num_lineages = 1;
  options.hot_lineages = 1;
  const uint64_t probe_seed = MixSeed(seed, 0xc0);
  const rpqres::workload::TrafficTrace trace(probe_seed, options);
  shards_ = shards;
  name_ = trace.lineage_name(0);
  base_ = trace.MakeDb(0);
  shards->Register(rpqres::GraphDb(base_), name_);
  registry_ = &shards->registry(shards->ShardForName(name_));
  commits_ = TrafficCommits(probe_seed, options, kCommits);
}

void CommitProbe::Rebase() {
  const rpqres::Result<rpqres::DbHandle> grown =
      registry_->Resolve(commits_[0].db_ref);
  shards_->Register(rpqres::GraphDb(base_), name_);
  if (grown.ok()) (void)registry_->UnregisterLineage(grown->lineage());
}

void CommitProbe::Poll(bool traced, CommitStats* stats) {
  while (Clock::now() >= next_due_) {
    for (int i = 0; i < kBurst; ++i) {
      if (next_ > 0 && next_ % commits_.size() == 0) Rebase();
      const rpqres::workload::TrafficOp& op =
          commits_[next_++ % commits_.size()];
      CommitAndRetire(op, registry_, Clock::now(), traced, stats);
    }
    next_due_ += kInterval;
  }
}

size_t TimeWindow(Clock::time_point start, double seconds, int count) {
  const double share = MicrosBetween(start, Clock::now()) / (seconds * 1e6);
  return static_cast<size_t>(
      std::clamp(share * count, 0.0, static_cast<double>(count - 1)));
}

void AddEndToEnd(Report* report, const std::string& workload,
                 const ClientStats& reads, const RunTiming& timing,
                 const CommitStats& commits, double setup_s) {
  // Per window: p50 and p99 of its reads, and their rate over the span
  // from the previous window's last completion to its own last one — raw,
  // and scaled by the window's speed factor (by the run's where a window
  // holds no reference sample; 1 where the workload takes none).
  std::vector<double> all_reference_us;
  for (const ClientStats::Window& window : reads.windows) {
    all_reference_us.insert(all_reference_us.end(),
                            window.reference_us.begin(),
                            window.reference_us.end());
  }
  const double run_factor = SpeedReference::Factor(all_reference_us);
  std::vector<double> rate, p50, p99, raw_rate, raw_p50, raw_p99;
  Clock::time_point begin = timing.start;
  int64_t total = 0;
  for (const ClientStats::Window& window : reads.windows) {
    const double seconds = MicrosBetween(begin, window.last_done) / 1e6;
    if (window.latency.count() == 0 || seconds <= 0) continue;
    begin = window.last_done;
    total += window.latency.count();
    const double factor = window.reference_us.empty()
                              ? run_factor
                              : SpeedReference::Factor(window.reference_us);
    raw_rate.push_back(static_cast<double>(window.latency.count()) / seconds);
    raw_p50.push_back(window.latency.Quantile(0.5));
    raw_p99.push_back(window.latency.Quantile(0.99));
    rate.push_back(raw_rate.back() / factor);
    p50.push_back(raw_p50.back() * factor);
    p99.push_back(raw_p99.back() * factor);
  }
  const double raw_commit_p50 = Quantile(commits.latency_us, 0.5);
  char line[320];
  std::snprintf(line, sizeof(line),
                "%s: %lld reads in %.2f s, medians over %zu windows; %zu "
                "commits, p50 %.1f us",
                workload.c_str(), static_cast<long long>(total),
                timing.seconds(), rate.size(), commits.latency_us.size(),
                raw_commit_p50);
  report->Note(line);
  if (!all_reference_us.empty()) {
    std::snprintf(line, sizeof(line),
                  "speed factor %.3f (reference kernel median %.1f us, "
                  "nominal %.0f, %zu samples); raw read p50 %.1f us, p99 "
                  "%.1f us, %.1f reads/s; set-up and commit times scaled too",
                  run_factor, Median(all_reference_us),
                  SpeedReference::kNominalMicros, all_reference_us.size(),
                  Median(raw_p50), Median(raw_p99), Median(raw_rate));
    report->Note(line);
  }
  report->Add("read_p50_us", Median(p50), "us");
  report->Add("read_p99_us", Median(p99), "us");
  report->Add("read_per_s", Median(rate), "1/s");
  report->Add("commit_p50_us", raw_commit_p50 * run_factor, "us");
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

double MedianSetupSeconds(int repeats, const std::function<double()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) seconds.push_back(setup());
  return Median(seconds);
}

}  // namespace perfbench
