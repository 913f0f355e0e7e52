// perfbench/client: the synchronous router client every workload uses,
// the sequential commit driver, and the end-to-end metric block.

#ifndef RPQRES_PERFBENCH_CLIENT_H_
#define RPQRES_PERFBENCH_CLIENT_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "engine/db_registry.h"
#include "inputs.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"

namespace perfbench {

/// What one client observed.
struct ClientStats {
  /// Untraced reads, per measurement window. The caller sets `window`
  /// before each read.
  struct Window {
    FineHistogram latency;
    Clock::time_point last_done{};
    /// SpeedReference samples taken in the window, µs; empty where the
    /// workload's times are not scaled.
    std::vector<double> reference_us;
  };
  std::vector<Window> windows;
  size_t window = 0;
  /// windows[window], created on first use.
  Window& current();
  AnswerTally tally;
  int64_t attempted = 0;
  int64_t errors = 0;  ///< non-OK responses (failed, refused or shed)
  TraceAccumulator trace;  ///< traced reads only
  /// First answer per pair, kept for witness checks when `keep_witnesses`.
  bool keep_witnesses = false;
  std::vector<std::optional<rpqres::ResilienceResult>> witnesses;

  explicit ClientStats(size_t pairs = 0) : tally(pairs), witnesses(pairs) {}
  void Merge(const ClientStats& other);
};

/// One read through Router::Evaluate, timed from the call to its response.
/// A traced read hands the engine a caller-owned TraceContext and times
/// Router::Submit apart from the wait for the response.
void RouterRead(rpqres::serve::Router& router, const std::string& tenant,
                const std::string& regex, const std::string& db_ref,
                rpqres::Semantics semantics, size_t pair, bool traced,
                ClientStats* stats);

struct CommitStats {
  std::vector<double> latency_us;  ///< from due to durable
  std::vector<double> lag_us;      ///< from due to issued
  std::vector<StagedCommit> staged;  ///< traced commits, split by phase
  int64_t attempted = 0;
  int64_t failed = 0;
  void Merge(const CommitStats& other);
};

/// The commit probe of the read-only workloads: traffic commits on a
/// lineage of their own, a burst of kBurst due every kInterval of the timed
/// phase and issued back to back between reads by the single client (so
/// each is due when it is issued). Spreading the bursts over the run keeps
/// one slow second of a shared machine from setting the median. Each
/// commit's parent version is retired once it succeeds. Every commit grows
/// the lineage, and a commit's cost grows with it, so each pass over the
/// kCommits commits starts again from a freshly registered base (untimed):
/// the median then covers the same lineage sizes whatever the run length.
class CommitProbe {
 public:
  static constexpr std::chrono::milliseconds kInterval{250};
  static constexpr int kBurst = 16;
  static constexpr int kCommits = 256;

  /// Registers the probe lineage of trace `seed` on `shards`.
  void Setup(rpqres::serve::ShardedRegistry* shards, uint64_t seed,
             bool tiny);
  /// Restarts the schedule at `start`.
  void Start(Clock::time_point start) { next_due_ = start + kInterval; }
  /// Issues every burst due by now.
  void Poll(bool traced, CommitStats* stats);

 private:
  /// Registers a fresh copy of the base and drops the grown lineage.
  void Rebase();

  rpqres::serve::ShardedRegistry* shards_ = nullptr;
  rpqres::DbRegistry* registry_ = nullptr;
  std::string name_;
  rpqres::GraphDb base_;
  std::vector<rpqres::workload::TrafficOp> commits_;
  size_t next_ = 0;
  Clock::time_point next_due_;
};

/// Applies one traffic commit — through TrafficTrace::ApplyCommit, or
/// split by phase when traced — records it, and retires its parent
/// version: the registry keeps every version it is not told to drop.
void CommitAndRetire(const rpqres::workload::TrafficOp& op,
                     rpqres::DbRegistry* registry, Clock::time_point due,
                     bool traced, CommitStats* stats);

/// Wall-clock span of one timed phase. Its reads are grouped into
/// measurement windows (ClientStats::window); the read figures are medians
/// over windows, so a short stall on a shared machine moves one window, not
/// the result.
struct RunTiming {
  Clock::time_point start;
  Clock::time_point end;  ///< when the last read completed
  double seconds() const { return MicrosBetween(start, end) / 1e6; }
};

/// Which of `count` equal windows of a `seconds`-long phase begun at
/// `start` the present moment falls in.
size_t TimeWindow(Clock::time_point start, double seconds, int count);

/// The untraced run's metrics: read_p50_us, read_p99_us, read_per_s,
/// commit_p50_us, setup_s, peak_rss_mib. Where the windows hold
/// SpeedReference samples, the read and commit figures are scaled to the
/// reference speed; `setup_s` comes in already scaled.
void AddEndToEnd(Report* report, const std::string& workload,
                 const ClientStats& reads, const RunTiming& timing,
                 const CommitStats& commits, double setup_s);

/// Median wall time of `repeats` set-ups. `setup` builds a fresh state
/// and returns the seconds it took; the caller keeps the last state.
double MedianSetupSeconds(int repeats, const std::function<double()>& setup);

}  // namespace perfbench

#endif  // RPQRES_PERFBENCH_CLIENT_H_
