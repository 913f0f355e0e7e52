// perfbench/common: shared plumbing of the repo benchmark — arguments,
// timing, order statistics, the result report, answer tallies and the
// span arithmetic the traced runs use.

#ifndef RPQRES_PERFBENCH_COMMON_H_
#define RPQRES_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "resilience/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Seconds from the benchmark process's start to `t`.
double SecondsSinceStart(Clock::time_point t);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test scale: every input shrunk so a run takes about a second.
  bool tiny = false;
  /// Scratch directory for storage files (owned by the caller).
  std::string workdir;
};

/// SplitMix64 finalizer: independent sub-seeds from one run seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Order statistic with linear interpolation between ranks; q in [0, 1].
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Latency histogram with 64 log-spaced buckets per doubling (about 1.1%
/// wide) from 1/16 µs to about 75 hours. Its size is fixed, so recording a
/// run's reads costs memory that does not grow with throughput; quantiles
/// interpolate within a bucket.
class FineHistogram {
 public:
  void Record(double micros);
  void Merge(const FineHistogram& other);
  double Quantile(double q) const;
  int64_t count() const { return count_; }

 private:
  static constexpr int kPerDoubling = 64;
  static constexpr int kBuckets = kPerDoubling * 32;
  static double LowerBound(int bucket);
  std::vector<int64_t> counts_ = std::vector<int64_t>(kBuckets, 0);
  int64_t count_ = 0;
};

/// Machine-speed reference. On a shared virtual machine the speed of every
/// process wanders together, by 20-30% over tens of seconds, so two runs of
/// the same code can differ by more than a regression bound. This fixed
/// kernel — integer mixing and dependent loads through a 64 KiB cycle,
/// warmed before it is timed, none of it code under test — is timed between
/// reads. Its nominal time over its measured time is the machine's speed
/// factor at that moment; a workload whose client sleeps while the program
/// works reports its times multiplied by it, i.e. in microseconds at the
/// reference speed, which cancels the machine's drift and not the
/// program's.
class SpeedReference {
 public:
  /// The kernel's time at the reference speed. Any constant would do, since
  /// only ratios between runs matter; this one is about its median on the
  /// 4-vCPU VM the benchmark was sized on, so scaled figures stay near raw.
  static constexpr double kNominalMicros = 200;
  /// Poll() samples at most this often.
  static constexpr std::chrono::milliseconds kInterval{40};

  SpeedReference();
  /// Runs the kernel once; its wall time, µs.
  double Sample();
  /// `samples` samples, back to back.
  std::vector<double> Samples(int samples);
  /// Samples into `into` when kInterval has passed since the last sample.
  void Poll(std::vector<double>* into);
  /// Nominal over median measured time; 1 for no samples.
  static double Factor(const std::vector<double>& sample_us);

 private:
  std::vector<uint32_t> cycle_;
  uint32_t at_ = 0;
  Clock::time_point next_{};
};

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// What one run prints: human-readable notes, then one JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Notes to stdout, then {"correct", "attempted", "failed", "checksum",
  /// "metrics"} as the last line.
  void Print() const;

  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t checksum = 0;
  bool correct = true;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// A resilience answer as one integer: the value, or -1 for +infinity.
inline int64_t AnswerCode(const rpqres::ResilienceResult& result) {
  return result.infinite ? -1 : result.value;
}

/// Distinct answers seen per (query, database) pair, with counts. Answers
/// are judged after the timed phase, against references computed apart
/// from the serving path.
class AnswerTally {
 public:
  explicit AnswerTally(size_t pairs = 0) : seen_(pairs) {}
  void Record(size_t pair, int64_t code, int64_t count = 1);
  void Merge(const AnswerTally& other);
  /// Reads whose answer differs from expected[pair].
  int64_t Wrong(const std::vector<int64_t>& expected) const;

 private:
  std::vector<std::vector<std::pair<int64_t, int64_t>>> seen_;
};

/// Total duration (µs) of the spans of `kind` in `trace`.
double SpanMicros(const rpqres::obs::TraceContext& trace,
                  rpqres::obs::SpanKind kind);

/// Per-read breakdown of traced router reads, accumulated per client.
struct TraceAccumulator {
  std::vector<double> submit_us;
  std::vector<double> queue_wait_us;
  std::vector<double> request_us;
  std::vector<double> resolve_us;
  std::vector<double> result_cache_lookup_us;
  std::vector<double> hit_read_us;
  std::vector<double> miss_read_us;
  double latency_sum_us = 0;
  double request_sum_us = 0;
  /// Request-span time no child span covers.
  double request_self_sum_us = 0;
  /// Read time no per-layer metric accounts for: the request span's own
  /// time, the classify span, and solve time outside the solver phases.
  double unaccounted_sum_us = 0;
  int64_t spans_dropped = 0;
  int64_t reads = 0;

  void Add(const rpqres::obs::TraceContext& trace, double submit_us,
           double evaluate_us, bool result_cache_hit);
  void Merge(const TraceAccumulator& other);
};

}  // namespace perfbench

#endif  // RPQRES_PERFBENCH_COMMON_H_
