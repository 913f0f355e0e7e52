// rpqbench: the repo benchmark binary. Normally started by run.py:
//
//   rpqbench --workload solve_matrix|serve_hot|cold_regex --seed N
//            --seconds S --trace 0|1 --workdir DIR [--tiny] [--checksum-only]
//
// Prints notes, then one JSON line: correct, attempted, failed, the
// resilience checksum of the seed, and the metrics — end-to-end with
// --trace 0, per-layer with --trace 1. --checksum-only sets up, computes
// the reference answers and prints just {"checksum": N}.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "rpqbench: %s\nusage: rpqbench --workload "
               "solve_matrix|serve_hot|cold_regex --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--tiny] [--checksum-only]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool checksum_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (flag == "--checksum-only") {
      checksum_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "solve_matrix" && args.workload != "serve_hot" &&
      args.workload != "cold_regex") {
    return Usage("unknown workload");
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  if (args.workdir.empty()) return Usage("--workdir is required");
  std::filesystem::create_directories(args.workdir);
  if (checksum_only) {
    std::printf("{\"checksum\": %lld}\n",
                static_cast<long long>(perfbench::ChecksumOnly(args)));
    return 0;
  }
  perfbench::RunWorkload(args).Print();
  return 0;
}
