// rpqres — obs/metrics: thread-safe counters and latency histograms.
//
// The registry aggregates what TraceContexts observe per request into
// process-wide series the exporters can snapshot:
//
//  * ShardedCounter — monotone counter striped across cachelines so
//    concurrent workers don't contend on one atomic.
//  * LatencyHistogram — fixed log-scale buckets (4 per decade, 0.1µs to
//    10s) with lock-free relaxed-atomic recording; quantiles (p50/p95/
//    p99) come from the snapshot by linear interpolation in the bucket.
//  * CounterFamily / HistogramFamily — series keyed by ONE label value
//    (status, algorithm, phase). Lookup by string_view is allocation-free
//    once a label has been seen (transparent comparator, shared lock);
//    only the first occurrence of a new label allocates its cell. Owners
//    with a fixed label set resolve its cells once, at construction, and
//    then record without any lock.
//
// Nothing here depends on the engine; the engine owns a MetricsRegistry
// and records into family cells from its serving path.

#ifndef RPQRES_OBS_METRICS_H_
#define RPQRES_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres::obs {

/// Monotone counter striped over kShards cachelines. Add() hashes the
/// calling thread to a shard; value() sums all shards.
///
/// Add() is a release and value() an acquire on every shard, so counters
/// can be read as consistent views without a lock: if a thread bumps A
/// before B, a reader that reads B before A never sees B's bump without
/// A's. Stats views built on counters rely on this.
class ShardedCounter {
 public:
  static constexpr int kShards = 8;

  void Add(int64_t delta);
  void Increment() { Add(1); }
  int64_t value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Fixed-bucket log-scale latency histogram in microseconds. Bucket
/// upper bounds are 0.1·10^(i/4) µs for i = 0..kFiniteBuckets-1 (four
/// buckets per decade, 0.1µs through 10^7µs = 10s) plus one overflow
/// bucket. Recording is wait-free (relaxed atomics); snapshots are
/// weakly consistent, which is fine for monitoring.
class LatencyHistogram {
 public:
  static constexpr int kFiniteBuckets = 33;
  static constexpr int kTotalBuckets = kFiniteBuckets + 1;

  /// Upper bounds in microseconds, ascending.
  static const std::array<double, kFiniteBuckets>& BucketBoundsMicros();

  void Record(double micros);

  struct Snapshot {
    std::array<uint64_t, kTotalBuckets> counts{};
    uint64_t total_count = 0;
    double sum_micros = 0.0;

    /// Quantile estimate in microseconds by linear interpolation inside
    /// the covering bucket; q in [0, 1]. Returns 0 when empty. Values in
    /// the overflow bucket report the largest finite bound.
    double Quantile(double q) const;
    /// Adds `other`'s counts/sum into this snapshot (bucket-wise sum;
    /// snapshots share the fixed bucket layout, so merging is exact).
    void Add(const Snapshot& other);
    double Mean() const {
      return total_count == 0 ? 0.0
                              : sum_micros / static_cast<double>(total_count);
    }
  };

  Snapshot TakeSnapshot() const;
  void Reset();

 private:
  static int BucketFor(double micros);

  std::array<std::atomic<uint64_t>, kTotalBuckets> counts_{};
  std::atomic<int64_t> sum_nanos_{0};
};

/// Counter series keyed by one label ("status", "algorithm", ...).
/// Cells are created on first use and never removed; references stay
/// valid for the family's lifetime (std::map nodes are stable).
class CounterFamily {
 public:
  CounterFamily(std::string name, std::string help, std::string label_key)
      : name_(std::move(name)),
        help_(std::move(help)),
        label_key_(std::move(label_key)) {}

  /// Returns the cell for `label`, creating it if needed. Allocation-free
  /// for labels already seen.
  ShardedCounter& WithLabel(std::string_view label) RPQRES_EXCLUDES(mu_);

  struct Sample {
    std::string label;
    int64_t value = 0;
    /// Optional second label rendered as shard="..." by the exporters;
    /// empty means "no shard dimension" (single-engine exports). Filled
    /// by MergeShardSnapshots, never by the family itself.
    std::string shard{};
  };
  struct Snapshot {
    std::string name;
    std::string help;
    std::string label_key;
    std::vector<Sample> samples;  ///< sorted by label
  };
  Snapshot TakeSnapshot() const;
  void Reset();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::string help_;
  std::string label_key_;
  /// Guards the map shape, not the cells — a returned cell reference
  /// stays valid (map nodes are stable) and records via its own atomics.
  mutable rpqres::SharedMutex mu_;
  std::map<std::string, ShardedCounter, std::less<>> cells_
      RPQRES_GUARDED_BY(mu_);
};

/// Histogram series keyed by one label. Same cell semantics as
/// CounterFamily.
class HistogramFamily {
 public:
  HistogramFamily(std::string name, std::string help, std::string label_key)
      : name_(std::move(name)),
        help_(std::move(help)),
        label_key_(std::move(label_key)) {}

  LatencyHistogram& WithLabel(std::string_view label) RPQRES_EXCLUDES(mu_);

  struct Series {
    std::string label;
    LatencyHistogram::Snapshot histogram;
    /// Optional shard="..." dimension; empty when absent (see
    /// CounterFamily::Sample::shard).
    std::string shard{};
  };
  struct Snapshot {
    std::string name;
    std::string help;
    std::string label_key;
    std::vector<Series> series;  ///< sorted by label
  };
  Snapshot TakeSnapshot() const;
  void Reset();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::string help_;
  std::string label_key_;
  mutable rpqres::SharedMutex mu_;  ///< guards the map shape, not the cells
  std::map<std::string, LatencyHistogram, std::less<>> cells_
      RPQRES_GUARDED_BY(mu_);
};

/// One instantaneous measurement, produced at export time (cache sizes,
/// registry shape, ...). Gauges are not stored in the registry — the
/// owner appends fresh values to each snapshot.
struct GaugeSample {
  std::string name;
  std::string help;
  double value = 0.0;
  /// Optional shard="..." dimension; empty when absent.
  std::string shard{};
};

/// Everything the exporters need, in one coherent struct.
struct MetricsSnapshot {
  std::vector<CounterFamily::Snapshot> counters;
  std::vector<HistogramFamily::Snapshot> histograms;
  std::vector<GaugeSample> gauges;
};

/// Owns counter and histogram families. Family creation is rare
/// (engine construction); recording goes straight to family cells.
class MetricsRegistry {
 public:
  /// Creates (or returns the existing) family with this name. The
  /// returned pointer is stable for the registry's lifetime.
  CounterFamily* Counter(std::string_view name, std::string_view help,
                         std::string_view label_key) RPQRES_EXCLUDES(mu_);
  HistogramFamily* Histogram(std::string_view name, std::string_view help,
                             std::string_view label_key) RPQRES_EXCLUDES(mu_);

  /// Snapshot of all families (gauges left empty for the caller).
  /// Counter families are read in registration order: an owner whose
  /// views need one family read before another (see ShardedCounter)
  /// registers that family first.
  MetricsSnapshot TakeSnapshot() const RPQRES_EXCLUDES(mu_);

  /// Zeroes every cell in every family (families and cells survive, so
  /// held pointers stay valid).
  void Reset() RPQRES_EXCLUDES(mu_);

 private:
  mutable rpqres::Mutex mu_;
  std::vector<std::unique_ptr<CounterFamily>> counters_
      RPQRES_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<HistogramFamily>> histograms_
      RPQRES_GUARDED_BY(mu_);
};

/// Merges per-shard engine snapshots into one fleet view. Every sample,
/// series, and gauge of shard i is tagged shard="i"; families with the
/// same name are folded into one family carrying all shards' samples.
/// Each counter and histogram family additionally gains shard="all"
/// roll-up samples/series per label (values summed, histogram buckets
/// merged), so consumers can read fleet totals without adding shards
/// themselves — and validators can check that the per-shard series sum
/// to the roll-up. Gauges get no roll-up (per-shard values are already
/// instantaneous; summing sizes across shards is the reader's call).
MetricsSnapshot MergeShardSnapshots(std::vector<MetricsSnapshot> shards);

}  // namespace rpqres::obs

#endif  // RPQRES_OBS_METRICS_H_
