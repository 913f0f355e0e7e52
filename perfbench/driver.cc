#include <cstdio>
#include <utility>

#include "workload.h"

namespace perfbench {

namespace {

// Set-up is repeated and its median reported, so one slow first build
// (page faults, allocator growth) does not set the figure.
constexpr int kSetups = 5;
// SpeedReference samples taken just before and just after each set-up of a
// speed-scaled workload.
constexpr int kSetupSamples = 8;
// The traced run alternates untraced and traced slices of equal length,
// so the tracing overhead is measured under the same conditions.
constexpr int kReplaySlices = 4;

std::unique_ptr<Workload> Make(const Args& args, int instance) {
  if (args.workload == "solve_matrix") return MakeSolveMatrix(args);
  if (args.workload == "serve_hot") return MakeServeHot(args, instance);
  return MakeColdRegex(args);
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

void AddReplayMetrics(const Args& args, const Replay& replay,
                      Report* report) {
  const TraceAccumulator& t = replay.reads.trace;
  ResultCacheHit hit{Median(t.result_cache_lookup_us), Median(t.hit_read_us)};
  if (t.hit_read_us.empty()) hit = ProbeResultCacheHit(args);
  report->Add("fail_share",
              Share(static_cast<double>(report->failed),
                    static_cast<double>(report->attempted)),
              "share");
  report->Add("serve.submit_us", Median(t.submit_us), "us");
  report->Add("serve.shed_share",
              Share(static_cast<double>(replay.sheds),
                    static_cast<double>(replay.submitted)),
              "share");
  report->Add("engine.queue_wait_us", Median(t.queue_wait_us), "us");
  report->Add("engine.request_us", Median(t.request_us), "us");
  report->Add("engine.result_cache.hit_share",
              Share(static_cast<double>(replay.result_cache_hits),
                    static_cast<double>(replay.result_cache_hits +
                                        replay.result_cache_misses)),
              "share");
  report->Add("engine.result_cache.lookup_us", hit.lookup_us, "us");
  report->Add("engine.result_cache.hit_read_us", hit.read_us, "us");
  report->Add("engine.result_cache.miss_read_us", Median(t.miss_read_us),
              "us");
  report->Add("engine.resolve_us", Median(t.resolve_us), "us");
  report->Add("engine.resolve_p99_us", Quantile(t.resolve_us, 0.99), "us");
  report->Add("engine.plan_cache.hit_share",
              Share(static_cast<double>(replay.plan_cache_hits),
                    static_cast<double>(replay.plan_cache_hits +
                                        replay.plan_cache_misses)),
              "share");
  report->Add("engine.plan_cache.lookup_us", replay.plan_cache_lookup_us,
              "us");
  report->Add("engine.unattributed_share",
              Share(t.request_self_sum_us, t.request_sum_us), "share");

  std::vector<double> stage, commit, compaction;
  for (const StagedCommit& c : replay.commits.staged) {
    if (!c.status.ok()) continue;
    stage.push_back(c.stage_us);
    commit.push_back(c.commit_us);
    if (c.compacted) compaction.push_back(c.commit_us);
  }
  report->Add("registry.stage_us", Median(stage), "us");
  report->Add("registry.commit_us", Median(commit), "us");
  report->Add("registry.compaction_share",
              Share(static_cast<double>(compaction.size()),
                    static_cast<double>(commit.size())),
              "share");
  report->Add("registry.compaction_us", Median(compaction), "us");
  report->Add("storage.commit_p99_us",
              Quantile(replay.commits.latency_us, 0.99), "us");
  report->Add("storage.retries", static_cast<double>(replay.storage_retries),
              "count");
  report->Add("obs.snapshot_us", replay.snapshot_us, "us");
  report->Add("bench.trace_overhead_share",
              1.0 - Share(Share(replay.traced_reads, replay.traced_seconds),
                          Share(replay.untraced_reads,
                                replay.untraced_seconds)),
              "share");
  report->Add("bench.writer_lag_us", Median(replay.commits.lag_us), "us");
  const double unaccounted = Share(t.unaccounted_sum_us, t.latency_sum_us);
  report->Add("bench.unaccounted_share", unaccounted, "share");
  char line[160];
  std::snprintf(line, sizeof(line),
                "unaccounted: %.1f%% of traced read latency is covered by no "
                "per-layer metric (%lld traced reads)",
                100.0 * unaccounted, static_cast<long long>(t.reads));
  report->Note(line);
}

void ApplyVerification(const Verification& v, int64_t wrong, Report* report) {
  report->checksum = v.checksum;
  report->failed += wrong + v.bad_witnesses;
  if (wrong > 0 || v.bad_witnesses > 0 || !v.problems.empty()) {
    report->correct = false;
  }
  if (wrong > 0) {
    report->Note("verification: " + std::to_string(wrong) +
                 " reads returned a wrong answer");
  }
  for (const std::string& problem : v.problems) {
    report->Note("verification: " + problem);
  }
}

}  // namespace

int64_t ChecksumOf(const std::vector<int64_t>& expected) {
  int64_t sum = 0;
  for (int64_t code : expected) sum += code < 0 ? 1'000'000 : code;
  return sum;
}

int64_t ChecksumOnly(const Args& args) {
  std::unique_ptr<Workload> workload = Make(args, 0);
  workload->Setup();
  const Verification v =
      workload->Verify(ClientStats(workload->pairs()), /*witnesses=*/false);
  workload->Release();
  return v.problems.empty() ? v.checksum : -1;
}

Report RunWorkload(const Args& args) {
  Report report;
  std::unique_ptr<Workload> workload;
  if (!args.trace) {
    int instance = 0;
    SpeedReference speed;
    const double setup_s =
        MedianSetupSeconds(args.tiny ? 2 : kSetups, [&] {
          workload.reset();  // tear-down is not set-up time
          workload = Make(args, instance++);
          if (!workload->speed_scaled()) return workload->Setup();
          std::vector<double> reference = speed.Samples(kSetupSamples);
          const double seconds = workload->Setup();
          const std::vector<double> after = speed.Samples(kSetupSamples);
          reference.insert(reference.end(), after.begin(), after.end());
          return seconds * SpeedReference::Factor(reference);
        });
    ClientStats reads(workload->pairs());
    CommitStats commits;
    const RunTiming timing =
        workload->Run(args.seconds, /*traced=*/false, &reads, &commits);
    const Verification v = workload->Verify(reads, /*witnesses=*/false);
    const int64_t wrong = reads.tally.Wrong(v.expected);
    report.attempted = reads.attempted + commits.attempted;
    report.failed = reads.errors + commits.failed;
    ApplyVerification(v, wrong, &report);
    AddEndToEnd(&report, args.workload, reads, timing, commits, setup_s);
    workload->Release();
    return report;
  }

  workload = Make(args, 0);
  workload->Setup();
  Replay replay;
  replay.reads = ClientStats(workload->pairs());
  replay.reads.keep_witnesses = true;
  const rpqres::serve::RouterStats router_before = workload->router().stats();
  const rpqres::EngineStats engine_before = workload->router().engine_stats();
  for (int slice = 0; slice < kReplaySlices; ++slice) {
    const bool traced = slice % 2 == 1;
    const int64_t before = replay.reads.attempted;
    const double seconds =
        workload->Run(args.seconds / kReplaySlices, traced, &replay.reads,
                      &replay.commits)
            .seconds();
    const double reads = static_cast<double>(replay.reads.attempted - before);
    (traced ? replay.traced_seconds : replay.untraced_seconds) += seconds;
    (traced ? replay.traced_reads : replay.untraced_reads) += reads;
  }
  const rpqres::serve::RouterStats router_after = workload->router().stats();
  const rpqres::EngineStats engine_after = workload->router().engine_stats();
  replay.submitted = router_after.submitted - router_before.submitted;
  replay.sheds = router_after.sheds() - router_before.sheds();
  replay.plan_cache_hits = engine_after.cache_hits - engine_before.cache_hits;
  replay.plan_cache_misses =
      engine_after.cache_misses - engine_before.cache_misses;
  replay.result_cache_hits =
      engine_after.result_cache_hits - engine_before.result_cache_hits;
  replay.result_cache_misses =
      engine_after.result_cache_misses - engine_before.result_cache_misses;

  std::vector<double> snapshot_us;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point start = Clock::now();
    rpqres::obs::MetricsSnapshot snapshot =
        workload->router().TakeMetricsSnapshot();
    snapshot_us.push_back(MicrosBetween(start, Clock::now()));
  }
  replay.snapshot_us = Median(snapshot_us);
  replay.plan_cache_lookup_us = workload->PlanCacheLookupMicros();
  for (int shard = 0; shard < workload->shards().num_shards(); ++shard) {
    replay.storage_retries +=
        workload->shards().registry(shard).stats().storage_retries;
  }

  const Verification v = workload->Verify(replay.reads, /*witnesses=*/true);
  report.attempted = replay.reads.attempted + replay.commits.attempted;
  report.failed = replay.reads.errors + replay.commits.failed;
  ApplyVerification(v, replay.reads.tally.Wrong(v.expected), &report);
  replay.recover_dir = workload->Release();
  AddReplayMetrics(args, replay, &report);
  AddLayerProbes(args, replay, &report);
  return report;
}

}  // namespace perfbench
