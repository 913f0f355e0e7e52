// LatencyHistogram bucket math against an exact reference quantile,
// ShardedCounter aggregation under threads, family label semantics, and
// the JSON / Prometheus exporters' structural invariants — including a
// live engine's exposition held to the text format's structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "graphdb/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "prometheus_text.h"
#include "util/rng.h"

namespace rpqres::obs {
namespace {

TEST(ShardedCounterTest, SumsAcrossThreads) {
  ShardedCounter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(LatencyHistogramTest, BucketBoundsAreLogSpaced) {
  const auto& bounds = LatencyHistogram::BucketBoundsMicros();
  EXPECT_NEAR(bounds.front(), 0.1, 1e-12);
  // Four buckets per decade: bounds[i+4] == 10 * bounds[i].
  for (int i = 0; i + 4 < LatencyHistogram::kFiniteBuckets; ++i) {
    EXPECT_NEAR(bounds[i + 4], 10.0 * bounds[i], 1e-9 * bounds[i + 4]);
  }
  // Coverage through 10 seconds.
  EXPECT_NEAR(bounds.back(), 1e7, 1.0);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(LatencyHistogramTest, QuantilesTrackExactReferenceWithinBucketError) {
  // Log-scale buckets at 4/decade have ratio 10^(1/4) ~ 1.778 between
  // adjacent bounds, so any quantile estimate must sit within one bucket
  // of the exact order statistic.
  constexpr double kBucketRatio = 1.7782794100389228;  // 10^(1/4)
  std::mt19937 rng(42);
  std::lognormal_distribution<double> dist(/*mean of log=*/4.0,
                                           /*sigma of log=*/1.5);
  LatencyHistogram histogram;
  std::vector<double> reference;
  reference.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) {
    double micros = dist(rng);
    histogram.Record(micros);
    reference.push_back(micros);
  }
  std::sort(reference.begin(), reference.end());

  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  ASSERT_EQ(snapshot.total_count, 20'000u);
  for (double q : {0.5, 0.95, 0.99}) {
    const double estimate = snapshot.Quantile(q);
    const double exact =
        reference[static_cast<size_t>(q * (reference.size() - 1))];
    EXPECT_GE(estimate, exact / kBucketRatio) << "q=" << q;
    EXPECT_LE(estimate, exact * kBucketRatio) << "q=" << q;
  }
  // The mean is exact (tracked as a sum, not through buckets).
  double exact_mean = 0;
  for (double v : reference) exact_mean += v;
  exact_mean /= static_cast<double>(reference.size());
  EXPECT_NEAR(snapshot.Mean(), exact_mean, exact_mean * 1e-3);
}

TEST(LatencyHistogramTest, HandlesEdgeValues) {
  LatencyHistogram histogram;
  histogram.Record(-5.0);                 // clamped to 0
  histogram.Record(0.0);                  // first bucket
  histogram.Record(1e12);                 // overflow bucket
  LatencyHistogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.total_count, 3u);
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[LatencyHistogram::kTotalBuckets - 1], 1u);
  // Empty histogram quantile is 0.
  LatencyHistogram empty;
  EXPECT_EQ(empty.TakeSnapshot().Quantile(0.5), 0.0);
}

// Bucket counts add up to the series count and the quantiles are
// ordered, for a synthetic distribution and for every series a live
// engine records.
void ExpectConsistent(const LatencyHistogram::Snapshot& snapshot,
                      const std::string& where) {
  uint64_t bucket_total = 0;
  for (uint64_t count : snapshot.counts) bucket_total += count;
  EXPECT_EQ(bucket_total, snapshot.total_count) << where;
  EXPECT_LE(snapshot.Quantile(0.50), snapshot.Quantile(0.95)) << where;
  EXPECT_LE(snapshot.Quantile(0.95), snapshot.Quantile(0.99)) << where;
}

// A small engine that has answered requests on all four solvers, plus one
// deadline shed, with its registry's gauges.
struct ServedEngine {
  DbRegistry registry;
  ResilienceEngine engine;

  ServedEngine() {
    Rng rng(2024);
    DbHandle db = registry.Register(
        RandomGraphDb(&rng, /*num_nodes=*/12, /*num_facts=*/40,
                      {'a', 'b', 'c', 'e', 'x'}, /*max_multiplicity=*/3),
        "served");
    for (const char* regex : {"ax*b", "ab|bc", "abc|be", "ab|bc|ca"}) {
      for (Semantics semantics : {Semantics::kBag, Semantics::kSet}) {
        ResilienceRequest request;
        request.regex = regex;
        request.db = db;
        request.semantics = semantics;
        EXPECT_TRUE(engine.Evaluate(request).status.ok()) << regex;
      }
    }
    ResilienceRequest late;
    late.regex = "ax*b";
    late.db = db;
    late.options.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    EXPECT_EQ(engine.Evaluate(late).status.code(),
              StatusCode::kDeadlineExceeded);
  }
};

TEST(LatencyHistogramTest, BucketsSumToCountAndQuantilesAreOrdered) {
  std::mt19937 rng(7);
  std::lognormal_distribution<double> dist(3.0, 2.0);
  LatencyHistogram histogram;
  for (int i = 0; i < 5'000; ++i) histogram.Record(dist(rng));
  ExpectConsistent(histogram.TakeSnapshot(), "lognormal");

  ServedEngine served;
  const MetricsSnapshot snapshot =
      served.engine.TakeMetricsSnapshot(&served.registry);
  ASSERT_FALSE(snapshot.histograms.empty());
  for (const HistogramFamily::Snapshot& family : snapshot.histograms) {
    for (const HistogramFamily::Series& series : family.series) {
      ExpectConsistent(series.histogram, family.name + "{" + series.label +
                                             "}");
    }
  }
  for (const CounterFamily::Snapshot& family : snapshot.counters) {
    for (const CounterFamily::Sample& sample : family.samples) {
      EXPECT_GE(sample.value, 0) << family.name << "{" << sample.label << "}";
    }
  }
}

TEST(FamilyTest, LabelsCreateStableCells) {
  CounterFamily family("rpqres_test_total", "test", "status");
  ShardedCounter& ok = family.WithLabel("ok");
  ok.Increment();
  family.WithLabel("error").Add(5);
  // Same label returns the same cell.
  EXPECT_EQ(&family.WithLabel("ok"), &ok);

  CounterFamily::Snapshot snapshot = family.TakeSnapshot();
  ASSERT_EQ(snapshot.samples.size(), 2u);
  // Sorted by label.
  EXPECT_EQ(snapshot.samples[0].label, "error");
  EXPECT_EQ(snapshot.samples[0].value, 5);
  EXPECT_EQ(snapshot.samples[1].label, "ok");
  EXPECT_EQ(snapshot.samples[1].value, 1);

  family.Reset();
  EXPECT_EQ(family.WithLabel("ok").value(), 0);
  // Reset zeroes cells but keeps them registered.
  EXPECT_EQ(family.TakeSnapshot().samples.size(), 2u);
}

TEST(RegistryTest, FamiliesDeduplicateByName) {
  MetricsRegistry registry;
  CounterFamily* a = registry.Counter("rpqres_x_total", "x", "l");
  CounterFamily* b = registry.Counter("rpqres_x_total", "other help", "l");
  EXPECT_EQ(a, b);
  HistogramFamily* h = registry.Histogram("rpqres_y_micros", "y", "l");
  EXPECT_EQ(h, registry.Histogram("rpqres_y_micros", "y", "l"));

  a->WithLabel("ok").Increment();
  h->WithLabel("ok").Record(3.0);
  MetricsSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].samples[0].value, 1);
  EXPECT_EQ(snapshot.histograms[0].series[0].histogram.total_count, 1u);
}

// --- exporters ------------------------------------------------------------

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry registry;
  CounterFamily* requests =
      registry.Counter("rpqres_requests_total", "Requests by status.",
                       "status");
  requests->WithLabel("ok").Add(3);
  requests->WithLabel("error").Add(1);
  HistogramFamily* latency = registry.Histogram(
      "rpqres_request_latency_micros", "Latency.", "status");
  latency->WithLabel("ok").Record(5.0);
  latency->WithLabel("ok").Record(50.0);
  latency->WithLabel("ok").Record(500.0);
  MetricsSnapshot snapshot = registry.TakeSnapshot();
  snapshot.gauges.push_back({"rpqres_cache_entries", "Entries.", 7.0});
  return snapshot;
}

TEST(ExportTest, PrometheusTextHasCumulativeBucketsAndInf) {
  std::string text = ToPrometheusText(SampleSnapshot());
  EXPECT_NE(text.find("# HELP rpqres_requests_total Requests by status."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rpqres_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rpqres_requests_total{status=\"ok\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rpqres_request_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "rpqres_request_latency_micros_bucket{status=\"ok\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("rpqres_request_latency_micros_count{status=\"ok\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rpqres_cache_entries gauge"), std::string::npos);
  EXPECT_NE(text.find("rpqres_cache_entries 7"), std::string::npos);
}

TEST(ExportTest, JsonCarriesQuantiles) {
  std::string json = ToJson(SampleSnapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the brace
  EXPECT_NE(json.find("\"rpqres_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"rpqres_cache_entries\""), std::string::npos);
}

TEST(ExportTest, EngineExpositionIsWellFormed) {
  ServedEngine served;
  const std::string text =
      served.engine.ExportMetrics(MetricsFormat::kPrometheus,
                                  &served.registry);
  std::vector<std::string> failures;
  const std::vector<prom_text::Sample> samples =
      prom_text::Parse(text, &failures);
  EXPECT_TRUE(failures.empty()) << ::testing::PrintToString(failures);
  EXPECT_TRUE(prom_text::RepeatedFamilyHeaders(text).empty())
      << ::testing::PrintToString(prom_text::RepeatedFamilyHeaders(text));
  int buckets = 0;
  for (const prom_text::Sample& sample : samples) {
    if (sample.labels.count("le") != 0) ++buckets;
  }
  EXPECT_GT(buckets, 0);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.Counter("rpqres_q_total", "q", "regex")
      ->WithLabel("a\"b\\c")
      .Increment();
  std::string text = ToPrometheusText(registry.TakeSnapshot());
  EXPECT_NE(text.find("rpqres_q_total{regex=\"a\\\"b\\\\c\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace rpqres::obs
