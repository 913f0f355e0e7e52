#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

using rpqres::obs::SpanKind;
using rpqres::obs::TraceContext;
using rpqres::obs::TraceSpan;

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double SecondsSinceStart(Clock::time_point t) {
  return std::chrono::duration<double>(t - kProcessStart).count();
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  return values[lo] + fraction * (values[hi] - values[lo]);
}

double FineHistogram::LowerBound(int bucket) {
  return std::exp2(static_cast<double>(bucket) / kPerDoubling) / 16.0;
}

void FineHistogram::Record(double micros) {
  const double position = std::log2(std::max(micros, 1e-9) * 16.0);
  const int bucket = static_cast<int>(std::clamp(
      std::floor(position * kPerDoubling), 0.0, double{kBuckets - 1}));
  ++counts_[bucket];
  ++count_;
}

void FineHistogram::Merge(const FineHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double FineHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_);
  int64_t below = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (static_cast<double>(below + counts_[b]) >= rank) {
      const double fraction =
          (rank - static_cast<double>(below)) / static_cast<double>(counts_[b]);
      return LowerBound(b) + fraction * (LowerBound(b + 1) - LowerBound(b));
    }
    below += counts_[b];
  }
  return LowerBound(kBuckets);
}

namespace {
// The reference kernel's size: 16384 entries (64 KiB, resident in any L2
// once warmed, so the code under test cannot change its cache misses) and
// the steps one sample walks.
constexpr uint32_t kCycleEntries = 1u << 14;
constexpr int kKernelSteps = 64000;
volatile uint64_t g_kernel_sink = 0;
}  // namespace

SpeedReference::SpeedReference() : cycle_(kCycleEntries) {
  // Sattolo's shuffle with a fixed seed: one cycle through every entry.
  for (uint32_t i = 0; i < kCycleEntries; ++i) cycle_[i] = i;
  uint64_t state = 0x5eed;
  for (uint32_t i = kCycleEntries - 1; i > 0; --i) {
    state = MixSeed(state, i);
    std::swap(cycle_[i], cycle_[state % i]);
  }
}

double SpeedReference::Sample() {
  uint64_t warm = 0;
  for (uint32_t v : cycle_) warm += v;
  const Clock::time_point start = Clock::now();
  uint64_t mix = warm;
  uint32_t at = at_;
  for (int i = 0; i < kKernelSteps; ++i) {
    at = cycle_[at];
    mix = (mix ^ at) * 0x9e3779b97f4a7c15ULL;
    mix ^= mix >> 29;
  }
  const Clock::time_point end = Clock::now();
  at_ = at;
  g_kernel_sink = g_kernel_sink + mix;
  return MicrosBetween(start, end);
}

std::vector<double> SpeedReference::Samples(int samples) {
  std::vector<double> out;
  for (int i = 0; i < samples; ++i) out.push_back(Sample());
  return out;
}

void SpeedReference::Poll(std::vector<double>* into) {
  const Clock::time_point now = Clock::now();
  if (now < next_) return;
  into->push_back(Sample());
  next_ = Clock::now() + kInterval;
}

double SpeedReference::Factor(const std::vector<double>& sample_us) {
  return sample_us.empty() ? 1.0 : kNominalMicros / Median(sample_us);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"checksum\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              static_cast<long long>(checksum));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are printed as null so the wrapper rejects them.
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.10g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void AnswerTally::Record(size_t pair, int64_t code, int64_t count) {
  for (auto& [seen_code, seen_count] : seen_[pair]) {
    if (seen_code == code) {
      seen_count += count;
      return;
    }
  }
  seen_[pair].emplace_back(code, count);
}

void AnswerTally::Merge(const AnswerTally& other) {
  if (seen_.size() < other.seen_.size()) seen_.resize(other.seen_.size());
  for (size_t pair = 0; pair < other.seen_.size(); ++pair) {
    for (const auto& [code, count] : other.seen_[pair]) {
      Record(pair, code, count);
    }
  }
}

int64_t AnswerTally::Wrong(const std::vector<int64_t>& expected) const {
  int64_t wrong = 0;
  for (size_t pair = 0; pair < seen_.size(); ++pair) {
    for (const auto& [code, count] : seen_[pair]) {
      if (pair >= expected.size() || code != expected[pair]) wrong += count;
    }
  }
  return wrong;
}

double SpanMicros(const TraceContext& trace, SpanKind kind) {
  double total = 0;
  for (int i = 0; i < trace.size(); ++i) {
    const TraceSpan& span = trace.spans()[i];
    if (span.kind == kind && span.duration_ns >= 0) {
      total += static_cast<double>(span.duration_ns) / 1000.0;
    }
  }
  return total;
}

void TraceAccumulator::Add(const TraceContext& trace, double submit,
                           double evaluate_us, bool result_cache_hit) {
  // The engine opens `request` at depth 0; plan lookup / compile (backfilled),
  // resolve, result-cache lookup, classify and solve are its depth-1
  // children; the solver phases are depth-2 children of solve.
  double request = 0, children = 0, solve = 0, solve_children = 0;
  double classify = 0, resolve = 0, lookup = 0;
  bool has_resolve = false, has_lookup = false;
  for (int i = 0; i < trace.size(); ++i) {
    const TraceSpan& span = trace.spans()[i];
    if (span.duration_ns < 0) continue;
    const double us = static_cast<double>(span.duration_ns) / 1000.0;
    if (span.depth == 0 && span.kind == SpanKind::kRequest) request += us;
    if (span.depth == 1) children += us;
    if (span.depth == 2) solve_children += us;
    switch (span.kind) {
      case SpanKind::kSolve:
        solve += us;
        break;
      case SpanKind::kClassify:
        classify += us;
        break;
      case SpanKind::kResolve:
        resolve += us;
        has_resolve = true;
        break;
      case SpanKind::kResultCacheLookup:
        lookup += us;
        has_lookup = true;
        break;
      default:
        break;
    }
  }
  const double request_self = std::max(0.0, request - children);
  const double solve_self = std::max(0.0, solve - solve_children);
  submit_us.push_back(submit);
  queue_wait_us.push_back(std::max(0.0, evaluate_us - submit - request));
  request_us.push_back(request);
  if (has_resolve) resolve_us.push_back(resolve);
  if (has_lookup) result_cache_lookup_us.push_back(lookup);
  (result_cache_hit ? hit_read_us : miss_read_us).push_back(evaluate_us);
  latency_sum_us += evaluate_us;
  request_sum_us += request;
  request_self_sum_us += request_self;
  unaccounted_sum_us += request_self + classify + solve_self;
  spans_dropped += trace.dropped();
  ++reads;
}

void TraceAccumulator::Merge(const TraceAccumulator& other) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&submit_us, other.submit_us);
  append(&queue_wait_us, other.queue_wait_us);
  append(&request_us, other.request_us);
  append(&resolve_us, other.resolve_us);
  append(&result_cache_lookup_us, other.result_cache_lookup_us);
  append(&hit_read_us, other.hit_read_us);
  append(&miss_read_us, other.miss_read_us);
  latency_sum_us += other.latency_sum_us;
  request_sum_us += other.request_sum_us;
  request_self_sum_us += other.request_self_sum_us;
  unaccounted_sum_us += other.unaccounted_sum_us;
  spans_dropped += other.spans_dropped;
  reads += other.reads;
}

}  // namespace perfbench
