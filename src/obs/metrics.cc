#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace rpqres::obs {

namespace {

// Stable per-thread shard index; hashing the thread id once per thread
// keeps Add() to a single relaxed fetch_add on a thread-private line.
int ThisThreadShard() {
  static thread_local const int shard = static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      ShardedCounter::kShards);
  return shard;
}

}  // namespace

void ShardedCounter::Add(int64_t delta) {
  shards_[ThisThreadShard()].value.fetch_add(delta, std::memory_order_release);
}

int64_t ShardedCounter::value() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_acquire);
  }
  return total;
}

void ShardedCounter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

const std::array<double, LatencyHistogram::kFiniteBuckets>&
LatencyHistogram::BucketBoundsMicros() {
  static const std::array<double, kFiniteBuckets> bounds = [] {
    std::array<double, kFiniteBuckets> b{};
    for (int i = 0; i < kFiniteBuckets; ++i) {
      b[i] = 0.1 * std::pow(10.0, static_cast<double>(i) / 4.0);
    }
    return b;
  }();
  return bounds;
}

int LatencyHistogram::BucketFor(double micros) {
  const auto& bounds = BucketBoundsMicros();
  // 34 buckets: a forward scan beats binary search on branch prediction
  // since most latencies land in a narrow band.
  for (int i = 0; i < kFiniteBuckets; ++i) {
    if (micros <= bounds[i]) return i;
  }
  return kFiniteBuckets;  // overflow
}

void LatencyHistogram::Record(double micros) {
  if (micros < 0 || !std::isfinite(micros)) micros = 0;
  counts_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(std::llround(micros * 1000.0),
                       std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snapshot;
  for (int i = 0; i < kTotalBuckets; ++i) {
    snapshot.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snapshot.total_count += snapshot.counts[i];
  }
  snapshot.sum_micros =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1000.0;
  return snapshot;
}

void LatencyHistogram::Reset() {
  for (auto& count : counts_) count.store(0, std::memory_order_relaxed);
  sum_nanos_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::Snapshot::Add(const Snapshot& other) {
  for (int i = 0; i < LatencyHistogram::kTotalBuckets; ++i) {
    counts[i] += other.counts[i];
  }
  total_count += other.total_count;
  sum_micros += other.sum_micros;
}

double LatencyHistogram::Snapshot::Quantile(double q) const {
  if (total_count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_count);
  const auto& bounds = LatencyHistogram::BucketBoundsMicros();
  uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kTotalBuckets; ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const uint64_t next = cumulative + in_bucket;
    if (static_cast<double>(next) >= target) {
      if (i >= LatencyHistogram::kFiniteBuckets) {
        return bounds.back();  // overflow: best lower estimate
      }
      const double lower = (i == 0) ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds.back();
}

ShardedCounter& CounterFamily::WithLabel(std::string_view label) {
  {
    SharedReaderLock lock(mu_);
    auto it = cells_.find(label);
    if (it != cells_.end()) return it->second;
  }
  SharedMutexLock lock(mu_);
  return cells_.try_emplace(std::string(label)).first->second;
}

CounterFamily::Snapshot CounterFamily::TakeSnapshot() const {
  Snapshot snapshot{name_, help_, label_key_, {}};
  SharedReaderLock lock(mu_);
  snapshot.samples.reserve(cells_.size());
  for (const auto& [label, counter] : cells_) {
    snapshot.samples.push_back({label, counter.value()});
  }
  return snapshot;
}

void CounterFamily::Reset() {
  SharedMutexLock lock(mu_);
  for (auto& [label, counter] : cells_) counter.Reset();
}

LatencyHistogram& HistogramFamily::WithLabel(std::string_view label) {
  {
    SharedReaderLock lock(mu_);
    auto it = cells_.find(label);
    if (it != cells_.end()) return it->second;
  }
  SharedMutexLock lock(mu_);
  return cells_.try_emplace(std::string(label)).first->second;
}

HistogramFamily::Snapshot HistogramFamily::TakeSnapshot() const {
  Snapshot snapshot{name_, help_, label_key_, {}};
  SharedReaderLock lock(mu_);
  snapshot.series.reserve(cells_.size());
  for (const auto& [label, histogram] : cells_) {
    snapshot.series.push_back({label, histogram.TakeSnapshot()});
  }
  return snapshot;
}

void HistogramFamily::Reset() {
  SharedMutexLock lock(mu_);
  for (auto& [label, histogram] : cells_) histogram.Reset();
}

CounterFamily* MetricsRegistry::Counter(std::string_view name,
                                        std::string_view help,
                                        std::string_view label_key) {
  MutexLock lock(mu_);
  for (const auto& family : counters_) {
    if (family->name() == name) return family.get();
  }
  counters_.push_back(std::make_unique<CounterFamily>(
      std::string(name), std::string(help), std::string(label_key)));
  return counters_.back().get();
}

HistogramFamily* MetricsRegistry::Histogram(std::string_view name,
                                            std::string_view help,
                                            std::string_view label_key) {
  MutexLock lock(mu_);
  for (const auto& family : histograms_) {
    if (family->name() == name) return family.get();
  }
  histograms_.push_back(std::make_unique<HistogramFamily>(
      std::string(name), std::string(help), std::string(label_key)));
  return histograms_.back().get();
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& family : counters_) {
    snapshot.counters.push_back(family->TakeSnapshot());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& family : histograms_) {
    snapshot.histograms.push_back(family->TakeSnapshot());
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (const auto& family : counters_) family->Reset();
  for (const auto& family : histograms_) family->Reset();
}

MetricsSnapshot MergeShardSnapshots(std::vector<MetricsSnapshot> shards) {
  MetricsSnapshot merged;
  // Families keyed by name, in first-seen order so the merged exposition
  // reads like a single engine's. Indexes into merged.{counters,
  // histograms}.
  std::map<std::string, size_t, std::less<>> counter_index;
  std::map<std::string, size_t, std::less<>> histogram_index;

  for (size_t shard = 0; shard < shards.size(); ++shard) {
    const std::string shard_label = std::to_string(shard);
    MetricsSnapshot& snapshot = shards[shard];
    for (CounterFamily::Snapshot& family : snapshot.counters) {
      auto [it, inserted] =
          counter_index.try_emplace(family.name, merged.counters.size());
      if (inserted) {
        merged.counters.push_back(
            {family.name, family.help, family.label_key, {}});
      }
      CounterFamily::Snapshot& out = merged.counters[it->second];
      for (CounterFamily::Sample& sample : family.samples) {
        sample.shard = shard_label;
        out.samples.push_back(std::move(sample));
      }
    }
    for (HistogramFamily::Snapshot& family : snapshot.histograms) {
      auto [it, inserted] =
          histogram_index.try_emplace(family.name, merged.histograms.size());
      if (inserted) {
        merged.histograms.push_back(
            {family.name, family.help, family.label_key, {}});
      }
      HistogramFamily::Snapshot& out = merged.histograms[it->second];
      for (HistogramFamily::Series& series : family.series) {
        series.shard = shard_label;
        out.series.push_back(std::move(series));
      }
    }
    for (GaugeSample& gauge : snapshot.gauges) {
      gauge.shard = shard_label;
      merged.gauges.push_back(std::move(gauge));
    }
  }

  // Group same-name gauges adjacently (stable within a name, shards in
  // order) so the Prometheus exporter emits HELP/TYPE once per family.
  std::stable_sort(merged.gauges.begin(), merged.gauges.end(),
                   [](const GaugeSample& a, const GaugeSample& b) {
                     return a.name < b.name;
                   });

  // shard="all" roll-ups: per family, per label, the sum over shards.
  // Appended after the per-shard samples so scrapes list members first.
  for (CounterFamily::Snapshot& family : merged.counters) {
    std::map<std::string, int64_t> totals;
    for (const CounterFamily::Sample& sample : family.samples) {
      totals[sample.label] += sample.value;
    }
    for (auto& [label, value] : totals) {
      family.samples.push_back({label, value, "all"});
    }
  }
  for (HistogramFamily::Snapshot& family : merged.histograms) {
    std::map<std::string, LatencyHistogram::Snapshot> totals;
    for (const HistogramFamily::Series& series : family.series) {
      totals[series.label].Add(series.histogram);
    }
    for (auto& [label, histogram] : totals) {
      family.series.push_back({label, histogram, "all"});
    }
  }
  return merged;
}

}  // namespace rpqres::obs
