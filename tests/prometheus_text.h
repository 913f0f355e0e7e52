// Prometheus text exposition (format 0.0.4) parsed back into samples,
// for the tests that hold an export to the format's structure:
//  * every sample follows a HELP and a TYPE line of its family;
//  * every histogram series' cumulative `le` buckets rise in bound and
//    never fall in count, end in +Inf, the +Inf bucket equals the
//    series' _count, and a _sum sample exists.
// RepeatedFamilyHeaders lists the families whose HELP or TYPE line
// appears more than once. obs_metrics_test runs the checks on an
// engine's export, serve_router_test on a router's merged export.

#ifndef RPQRES_TESTS_PROMETHEUS_TEXT_H_
#define RPQRES_TESTS_PROMETHEUS_TEXT_H_

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace rpqres::prom_text {

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// `name{key="value",...} number`; escaped characters in label values
/// are kept without their backslash.
inline bool ParseSampleLine(const std::string& line, Sample* sample) {
  size_t i = line.find_first_of("{ ");
  if (i == std::string::npos || i == 0) return false;
  sample->name = line.substr(0, i);
  if (line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const size_t eq = line.find("=\"", i);
      if (eq == std::string::npos) return false;
      std::string value;
      size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\' && j + 1 < line.size()) ++j;
        value += line[j];
      }
      if (j >= line.size()) return false;
      sample->labels[line.substr(i, eq - i)] = value;
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return false;
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') return false;
  const char* begin = line.c_str() + i + 1;
  char* end = nullptr;
  sample->value = std::strtod(begin, &end);
  return end != begin && *end == '\0';
}

/// The family a sample belongs to: histogram samples drop their
/// _bucket / _sum / _count suffix.
inline std::string FamilyOf(const std::string& name,
                            const std::map<std::string, std::string>& types) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string base = name.substr(0, name.size() - s.size());
      auto it = types.find(base);
      if (it != types.end() && it->second == "histogram") return base;
    }
  }
  return name;
}

/// `name{k=v,...}` over sorted labels, for grouping series.
inline std::string SeriesKey(const std::string& name,
                             const std::map<std::string, std::string>& labels) {
  std::string key = name + "{";
  for (const auto& [label, value] : labels) key += label + "=" + value + ",";
  return key + "}";
}

/// Parses `text`, appending one line per structural violation to
/// `failures`, and returns the samples in order.
inline std::vector<Sample> Parse(const std::string& text,
                                 std::vector<std::string>* failures) {
  std::set<std::string> helped;
  std::map<std::string, std::string> types;
  std::vector<Sample> samples;
  std::istringstream in(text);
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    const std::string where = "line " + std::to_string(lineno) + ": ";
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string family, type;
      words >> family >> type;
      if (line[2] == 'H') {
        helped.insert(family);
      } else {
        types[family] = type;
      }
      continue;
    }
    if (line[0] == '#') continue;
    Sample sample;
    if (!ParseSampleLine(line, &sample)) {
      failures->push_back(where + "unparseable sample: " + line);
      continue;
    }
    const std::string family = FamilyOf(sample.name, types);
    if (helped.count(family) == 0 || types.count(family) == 0) {
      failures->push_back(where + "sample " + sample.name +
                          " lacks a HELP/TYPE line before it");
    }
    samples.push_back(std::move(sample));
  }

  // Histogram series: (le, cumulative count) per bucket, plus _count/_sum.
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> counts;
  std::set<std::string> sums;
  for (const Sample& sample : samples) {
    const std::string family = FamilyOf(sample.name, types);
    if (family == sample.name) continue;
    std::map<std::string, std::string> labels = sample.labels;
    const std::string suffix = sample.name.substr(family.size());
    if (suffix == "_bucket") {
      const std::string le = labels["le"];
      labels.erase("le");
      buckets[SeriesKey(family, labels)].emplace_back(
          le == "+Inf" ? INFINITY : std::strtod(le.c_str(), nullptr),
          sample.value);
    } else if (suffix == "_count") {
      counts[SeriesKey(family, labels)] = sample.value;
    } else {
      sums.insert(SeriesKey(family, labels));
    }
  }
  for (const auto& [series, cumulative] : buckets) {
    for (size_t i = 1; i < cumulative.size(); ++i) {
      if (cumulative[i].first <= cumulative[i - 1].first) {
        failures->push_back(series + ": le bounds out of order");
      }
      if (cumulative[i].second < cumulative[i - 1].second) {
        failures->push_back(series + ": cumulative counts fall");
      }
    }
    if (!std::isinf(cumulative.back().first)) {
      failures->push_back(series + ": no +Inf bucket");
    } else if (counts.count(series) == 0) {
      failures->push_back(series + ": no _count sample");
    } else if (counts[series] != cumulative.back().second) {
      failures->push_back(series + ": +Inf bucket != _count");
    }
    if (sums.count(series) == 0) {
      failures->push_back(series + ": no _sum sample");
    }
  }
  return samples;
}

/// Families whose HELP or TYPE line appears more than once in `text`.
inline std::set<std::string> RepeatedFamilyHeaders(const std::string& text) {
  std::set<std::string> seen, repeated;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
      continue;
    }
    std::istringstream words(line.substr(2));
    std::string kind, family;
    words >> kind >> family;
    if (!seen.insert(kind + " " + family).second) repeated.insert(family);
  }
  return repeated;
}

}  // namespace rpqres::prom_text

#endif  // RPQRES_TESTS_PROMETHEUS_TEXT_H_
