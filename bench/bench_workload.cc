// rpqres — bench/bench_workload: the differential-oracle fuzz CLI.
//
// Default mode runs the class-stratified workload sweep (plan vs exact
// solver on every instance, brute-force cross-check on tiny ones), prints
// a per-class summary, writes BENCH_workload.json, and exits nonzero if
// any mismatch survived — each mismatch prints a one-line replay command.
//
//   bench_workload [--seed N] [--per-class N] [--threads N]
//                  [--size-class 0|1|2] [--exact-budget NODES]
//                  [--no-minimize] [--out PATH]
//   bench_workload --replay SEED   # rebuild + re-judge one instance
//
// --exact-budget caps the exact reference solver's branch & bound (search
// nodes per solve); pairs exceeding it count inconclusive, which is how
// the nightly size_class 1/2 large-instance sweep stays bounded.
//
// The JSON report is a flat schema written without external
// dependencies.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fault/failpoints.h"
#include "obs/export.h"
#include "workload/chaos.h"
#include "workload/churn.h"
#include "workload/differential_oracle.h"

namespace rpqres {
namespace {

using workload::DifferentialOracle;
using workload::OracleClassReport;
using workload::OracleMismatch;
using workload::OracleOptions;
using workload::OracleReport;
using workload::QueryClassName;
using workload::WorkloadInstance;

std::string SemanticsName(Semantics semantics) {
  return semantics == Semantics::kSet ? "set" : "bag";
}

std::string ReportToJson(const DifferentialOracle& oracle,
                         const OracleReport& report) {
  using obs::JsonEscape;
  std::string json = "{\n";
  json += "  \"schema\": \"rpqres_workload_fuzz_v1\",\n";
  json += "  \"base_seed\": " + std::to_string(oracle.options().base_seed) +
          ",\n";
  json += "  \"instances_per_class\": " +
          std::to_string(oracle.options().instances_per_class) + ",\n";
  json += "  \"size_class\": " +
          std::to_string(oracle.options().workload.db.size_class) + ",\n";
  json += "  \"exact_budget\": " +
          std::to_string(oracle.options().max_exact_search_nodes) + ",\n";
  json += "  \"instances\": " + std::to_string(report.instances) + ",\n";
  json += "  \"generation_failures\": " +
          std::to_string(report.generation_failures) + ",\n";
  json += "  \"inconclusive\": " + std::to_string(report.inconclusive) +
          ",\n";
  json += "  \"mismatches\": " + std::to_string(report.mismatches.size()) +
          ",\n";
  json += "  \"wall_ms\": " + std::to_string(report.wall_micros / 1000.0) +
          ",\n";
  json += "  \"classes\": [\n";
  for (size_t i = 0; i < report.per_class.size(); ++i) {
    const OracleClassReport& c = report.per_class[i];
    json += "    {\"class\": \"" + std::string(QueryClassName(c.query_class)) +
            "\", \"instances\": " + std::to_string(c.instances) +
            ", \"mismatches\": " + std::to_string(c.mismatches) +
            ", \"generation_failures\": " +
            std::to_string(c.generation_failures) +
            ", \"brute_force_checked\": " +
            std::to_string(c.brute_force_checked) +
            ", \"inconclusive\": " + std::to_string(c.inconclusive) +
            ", \"wall_ms\": " + std::to_string(c.wall_micros / 1000.0) +
            ", \"by_algorithm\": {";
    bool first = true;
    for (const auto& [algorithm, count] : c.by_algorithm) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + JsonEscape(algorithm) + "\": " + std::to_string(count);
    }
    json += "}}";
    json += i + 1 < report.per_class.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"mismatch_details\": [\n";
  for (size_t i = 0; i < report.mismatches.size(); ++i) {
    const OracleMismatch& m = report.mismatches[i];
    json += "    {\"seed\": " + std::to_string(m.seed) + ", \"class\": \"" +
            QueryClassName(m.query_class) + "\", \"regex\": \"" +
            JsonEscape(m.regex) + "\", \"semantics\": \"" +
            SemanticsName(m.semantics) + "\", \"detail\": \"" +
            JsonEscape(m.detail) + "\", \"replay\": \"" +
            JsonEscape(m.replay) + "\", \"minimized_facts\": " +
            std::to_string(m.minimized_facts) + ", \"minimized_db\": \"" +
            JsonEscape(m.minimized_db) + "\"}";
    json += i + 1 < report.mismatches.size() ? ",\n" : "\n";
  }
  json += "  ]\n";
  json += "}\n";
  return json;
}

void PrintReport(const OracleReport& report) {
  std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "class", "instances",
              "mismatch", "gen-fail", "brute-ck", "inconcl", "wall-ms");
  for (const OracleClassReport& c : report.per_class) {
    std::printf("%-14s %10d %10d %10d %10d %10d %10.1f\n",
                QueryClassName(c.query_class), c.instances, c.mismatches,
                c.generation_failures, c.brute_force_checked, c.inconclusive,
                c.wall_micros / 1000.0);
  }
  std::printf("total: %lld instances, %zu mismatches, %lld inconclusive, "
              "%.1f ms\n",
              static_cast<long long>(report.instances),
              report.mismatches.size(),
              static_cast<long long>(report.inconclusive),
              report.wall_micros / 1000.0);
  for (const OracleMismatch& m : report.mismatches) {
    std::printf("MISMATCH seed=%llu class=%s regex=%s semantics=%s: %s\n",
                static_cast<unsigned long long>(m.seed),
                QueryClassName(m.query_class), m.regex.c_str(),
                SemanticsName(m.semantics).c_str(), m.detail.c_str());
    std::printf("  replay: %s\n", m.replay.c_str());
    std::printf("  minimized counterexample (%d facts):\n%s\n",
                m.minimized_facts, m.minimized_db.c_str());
  }
}

/// --churn N: sweep N seeded delta-commit churn sequences (the versioned
/// registry's delta-vs-rebuild equivalence check; see workload/churn.h).
int RunChurn(uint64_t base_seed, int sequences, int threads) {
  workload::ChurnOptions options;
  options.engine.num_threads = threads;
  workload::ChurnHarness harness(options);
  int64_t commits = 0, ops = 0, inconclusive = 0, generation_failures = 0;
  std::vector<std::string> mismatches;
  for (int i = 0; i < sequences; ++i) {
    workload::ChurnReport report = harness.Run(base_seed + i);
    commits += report.commits;
    ops += report.ops;
    inconclusive += report.inconclusive;
    if (report.generation_failed) ++generation_failures;
    for (const std::string& mismatch : report.mismatches) {
      mismatches.push_back(mismatch);
    }
  }
  std::printf(
      "churn: %d sequences, %lld commits, %lld ops, %lld inconclusive, "
      "%lld gen-fail, %zu mismatches\n",
      sequences, static_cast<long long>(commits), static_cast<long long>(ops),
      static_cast<long long>(inconclusive),
      static_cast<long long>(generation_failures), mismatches.size());
  for (const std::string& mismatch : mismatches) {
    std::printf("CHURN MISMATCH %s\n", mismatch.c_str());
  }
  return mismatches.empty() ? 0 : 1;
}

/// --chaos N: the crash-chaos sweep — N seeds per failpoint site, each
/// seed forked, crashed at the site, reopened, and verified against an
/// in-memory twin (see workload/chaos.h).
int RunChaos(uint64_t base_seed, int seeds_per_site, int threads,
             const std::string& only_site) {
  workload::ChaosOptions options;
  options.engine.num_threads = threads;
  workload::ChaosHarness harness(options);
  std::vector<std::string> sites;
  if (only_site.empty()) {
    for (std::string_view site : fault::KnownSites()) {
      sites.emplace_back(site);
    }
  } else {
    sites.push_back(only_site);
  }
  int64_t runs = 0, crashed = 0, clean = 0, generation_failures = 0,
          inconclusive = 0;
  std::vector<std::string> mismatches;
  std::printf("%-28s %8s %8s %8s %10s\n", "site", "runs", "crashed", "clean",
              "mismatch");
  for (const std::string& site : sites) {
    int64_t site_runs = 0, site_crashed = 0, site_clean = 0;
    size_t site_mismatches = mismatches.size();
    for (int i = 0; i < seeds_per_site; ++i) {
      workload::ChaosReport report = harness.Run(site, base_seed + i);
      if (report.generation_failed) {
        ++generation_failures;
        continue;
      }
      ++site_runs;
      if (report.crashed) {
        ++site_crashed;
      } else if (report.exit_status == 0) {
        ++site_clean;
      }
      inconclusive += report.inconclusive;
      for (const std::string& mismatch : report.mismatches) {
        mismatches.push_back(mismatch);
      }
    }
    std::printf("%-28s %8lld %8lld %8lld %10zu\n", site.c_str(),
                static_cast<long long>(site_runs),
                static_cast<long long>(site_crashed),
                static_cast<long long>(site_clean),
                mismatches.size() - site_mismatches);
    runs += site_runs;
    crashed += site_crashed;
    clean += site_clean;
  }
  std::printf(
      "chaos: %lld runs, %lld crashed-as-injected, %lld clean, "
      "%lld inconclusive, %lld gen-fail, %zu mismatches\n",
      static_cast<long long>(runs), static_cast<long long>(crashed),
      static_cast<long long>(clean), static_cast<long long>(inconclusive),
      static_cast<long long>(generation_failures), mismatches.size());
  for (const std::string& mismatch : mismatches) {
    std::printf("CHAOS MISMATCH %s\n", mismatch.c_str());
  }
  return mismatches.empty() ? 0 : 1;
}

int Replay(DifferentialOracle& oracle, uint64_t seed) {
  Result<WorkloadInstance> instance = oracle.BuildInstance(seed);
  if (!instance.ok()) {
    std::printf("seed %llu does not derive an instance: %s\n",
                static_cast<unsigned long long>(seed),
                instance.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", DescribeInstance(*instance).c_str());
  std::printf("classification: %s\n",
              instance->query.classification.rule.c_str());
  std::printf("database:\n%s\n", instance->db.ToString().c_str());
  OracleReport report = oracle.RunSeeds({seed});
  PrintReport(report);
  return report.clean() ? 0 : 1;
}

int Main(int argc, char** argv) {
  OracleOptions options;
  std::string out_path = "BENCH_workload.json";
  bool replay = false;
  uint64_t replay_seed = 0;
  int churn_sequences = 0;
  int chaos_seeds = 0;
  std::string chaos_site;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      options.base_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--per-class") {
      options.instances_per_class = std::atoi(next());
    } else if (arg == "--threads") {
      options.engine.num_threads = std::atoi(next());
    } else if (arg == "--size-class") {
      options.workload.db.size_class = std::atoi(next());
    } else if (arg == "--exact-budget") {
      options.max_exact_search_nodes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--no-minimize") {
      options.minimize_counterexamples = false;
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--replay") {
      replay = true;
      replay_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--churn") {
      churn_sequences = std::atoi(next());
    } else if (arg == "--chaos") {
      chaos_seeds = std::atoi(next());
    } else if (arg == "--chaos-site") {
      chaos_site = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_workload [--seed N] [--per-class N] [--threads N]\n"
          "                      [--size-class 0|1|2] [--exact-budget N]\n"
          "                      [--no-minimize] [--out PATH]\n"
          "                      | --replay SEED | --churn SEQUENCES\n"
          "                      | --chaos SEEDS_PER_SITE [--chaos-site S]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (options.instances_per_class < 1) {
    std::fprintf(stderr, "--per-class must be >= 1\n");
    return 2;
  }
  if (options.engine.num_threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }
  if (options.workload.db.size_class < 0 ||
      options.workload.db.size_class > 2) {
    std::fprintf(stderr, "--size-class must be 0, 1, or 2\n");
    return 2;
  }
  if (options.max_exact_search_nodes < 1) {
    std::fprintf(stderr, "--exact-budget must be >= 1\n");
    return 2;
  }

  if (churn_sequences > 0) {
    return RunChurn(options.base_seed, churn_sequences,
                    options.engine.num_threads);
  }
  if (chaos_seeds > 0) {
    return RunChaos(options.base_seed, chaos_seeds, options.engine.num_threads,
                    chaos_site);
  }

  DifferentialOracle oracle(options);
  if (replay) return Replay(oracle, replay_seed);

  OracleReport report = oracle.RunAll();
  PrintReport(report);
  std::string json = ReportToJson(oracle, report);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return report.clean() ? 0 : 1;
}

}  // namespace
}  // namespace rpqres

int main(int argc, char** argv) { return rpqres::Main(argc, argv); }
