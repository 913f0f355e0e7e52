#include "obs/export.h"

#include <cstdio>
#include <string>
#include <string_view>

namespace rpqres::obs {

namespace {

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Prometheus label values escape backslash, double quote and newline.
std::string PromEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Renders the optional shard dimension; empty shard means none.
std::string ShardSuffix(std::string_view shard) {
  if (shard.empty()) return "";
  return ",shard=\"" + PromEscape(shard) + "\"";
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& family : snapshot.counters) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " counter\n";
    for (const auto& sample : family.samples) {
      out += family.name + "{" + family.label_key + "=\"" +
             PromEscape(sample.label) + "\"" + ShardSuffix(sample.shard) +
             "} " + std::to_string(sample.value) + "\n";
    }
  }
  for (const auto& family : snapshot.histograms) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " histogram\n";
    const auto& bounds = LatencyHistogram::BucketBoundsMicros();
    for (const auto& series : family.series) {
      const std::string labels = family.label_key + "=\"" +
                                 PromEscape(series.label) + "\"" +
                                 ShardSuffix(series.shard);
      uint64_t cumulative = 0;
      for (int i = 0; i < LatencyHistogram::kFiniteBuckets; ++i) {
        cumulative += series.histogram.counts[i];
        out += family.name + "_bucket{" + labels + ",le=\"" +
               FormatDouble(bounds[i]) + "\"} " + std::to_string(cumulative) +
               "\n";
      }
      out += family.name + "_bucket{" + labels + ",le=\"+Inf\"} " +
             std::to_string(series.histogram.total_count) + "\n";
      out += family.name + "_sum{" + labels + "} " +
             FormatDouble(series.histogram.sum_micros) + "\n";
      out += family.name + "_count{" + labels + "} " +
             std::to_string(series.histogram.total_count) + "\n";
    }
  }
  // Merged shard snapshots repeat each gauge name once per shard;
  // HELP/TYPE must appear once per family, so track what was emitted.
  const GaugeSample* previous = nullptr;
  for (const auto& gauge : snapshot.gauges) {
    if (previous == nullptr || previous->name != gauge.name) {
      out += "# HELP " + gauge.name + " " + gauge.help + "\n";
      out += "# TYPE " + gauge.name + " gauge\n";
    }
    previous = &gauge;
    out += gauge.name;
    if (!gauge.shard.empty()) {
      out += "{shard=\"" + PromEscape(gauge.shard) + "\"}";
    }
    out += " " + FormatDouble(gauge.value) + "\n";
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": [";
  bool first_family = true;
  for (const auto& family : snapshot.counters) {
    out += first_family ? "\n" : ",\n";
    first_family = false;
    out += "    {\"name\": \"" + JsonEscape(family.name) + "\", \"help\": \"" +
           JsonEscape(family.help) + "\", \"label_key\": \"" +
           JsonEscape(family.label_key) + "\", \"samples\": [";
    bool first_sample = true;
    for (const auto& sample : family.samples) {
      out += first_sample ? "" : ", ";
      first_sample = false;
      out += "{\"label\": \"" + JsonEscape(sample.label) + "\"";
      if (!sample.shard.empty()) {
        out += ", \"shard\": \"" + JsonEscape(sample.shard) + "\"";
      }
      out += ", \"value\": " + std::to_string(sample.value) + "}";
    }
    out += "]}";
  }
  out += "\n  ],\n  \"histograms\": [";
  const auto& bounds = LatencyHistogram::BucketBoundsMicros();
  bool first_histogram = true;
  for (const auto& family : snapshot.histograms) {
    out += first_histogram ? "\n" : ",\n";
    first_histogram = false;
    out += "    {\"name\": \"" + JsonEscape(family.name) + "\", \"help\": \"" +
           JsonEscape(family.help) + "\", \"label_key\": \"" +
           JsonEscape(family.label_key) + "\", \"series\": [";
    bool first_series = true;
    for (const auto& series : family.series) {
      out += first_series ? "" : ", ";
      first_series = false;
      const auto& h = series.histogram;
      out += "{\"label\": \"" + JsonEscape(series.label) + "\"";
      if (!series.shard.empty()) {
        out += ", \"shard\": \"" + JsonEscape(series.shard) + "\"";
      }
      out += ", \"count\": " +
             std::to_string(h.total_count) + ", \"sum_micros\": " +
             FormatDouble(h.sum_micros) + ", \"p50_micros\": " +
             FormatDouble(h.Quantile(0.50)) + ", \"p95_micros\": " +
             FormatDouble(h.Quantile(0.95)) + ", \"p99_micros\": " +
             FormatDouble(h.Quantile(0.99)) + ", \"buckets\": [";
      // Sparse, per-bucket (non-cumulative) counts; overflow uses the
      // string "+Inf" since JSON has no infinity literal.
      bool first_bucket = true;
      for (int i = 0; i < LatencyHistogram::kTotalBuckets; ++i) {
        if (h.counts[i] == 0) continue;
        out += first_bucket ? "" : ", ";
        first_bucket = false;
        out += "{\"le\": ";
        out += i < LatencyHistogram::kFiniteBuckets
                   ? FormatDouble(bounds[i])
                   : std::string("\"+Inf\"");
        out += ", \"count\": " + std::to_string(h.counts[i]) + "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "\n  ],\n  \"gauges\": [";
  bool first_gauge = true;
  for (const auto& gauge : snapshot.gauges) {
    out += first_gauge ? "\n" : ",\n";
    first_gauge = false;
    out += "    {\"name\": \"" + JsonEscape(gauge.name) + "\", \"help\": \"" +
           JsonEscape(gauge.help) + "\"";
    if (!gauge.shard.empty()) {
      out += ", \"shard\": \"" + JsonEscape(gauge.shard) + "\"";
    }
    out += ", \"value\": " + FormatDouble(gauge.value) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace rpqres::obs
