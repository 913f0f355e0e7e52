#include "workload/chaos.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <utility>

#include "fault/failpoints.h"
#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "util/rng.h"

namespace rpqres {
namespace workload {
namespace {

bool IsInconclusive(StatusCode code) {
  return code == StatusCode::kOutOfRange ||
         code == StatusCode::kDeadlineExceeded;
}

/// One pre-planned mutation. The plan is derived once from the seed and
/// applied identically by the crashing child and the parent's twin, so
/// the two sides never need to agree on anything but the seed.
struct ChaosOp {
  enum class Kind : uint8_t { kAddFact, kRemoveFact, kAddNode };
  Kind kind = Kind::kAddFact;
  NodeId source = 0;
  NodeId target = 0;
  char label = 'a';
  Capacity multiplicity = 1;
  std::string node_name;
};

struct ChaosPlan {
  bool generation_failed = false;
  GraphDb base;
  std::string regex;
  Semantics semantics = Semantics::kSet;
  std::vector<std::vector<ChaosOp>> commits;  ///< commits[i] -> version i+2
};

/// FNV-1a, so the per-site crash index is stable across processes and
/// binaries (std::hash makes no such promise).
uint64_t HashSite(std::string_view site) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ChaosPlan MakeChaosPlan(uint64_t seed, const ChaosOptions& options) {
  ChaosPlan plan;
  Result<WorkloadInstance> instance = MakeWorkloadInstance(seed,
                                                           options.workload);
  if (!instance.ok()) {
    plan.generation_failed = true;
    return plan;
  }
  plan.base = instance->db;
  plan.regex = instance->query.regex;
  plan.semantics = instance->semantics;
  Language lang = Language::MustFromRegexString(plan.regex);

  // Simulate on a scratch copy so removals always name a live fact at
  // apply time (the apply order is identical on both sides).
  GraphDb reference = instance->db;
  std::vector<char> labels = reference.Labels();
  for (char c : lang.used_letters()) labels.push_back(c);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  if (labels.empty()) labels.push_back('a');

  // Distinct stream constant from churn: the same seed must not replay
  // the same op sequence across harnesses.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  int node_seq = 0;
  plan.commits.resize(options.num_commits);
  for (std::vector<ChaosOp>& commit : plan.commits) {
    const int ops = 1 + static_cast<int>(rng.NextBelow(
                            static_cast<uint64_t>(options.max_ops_per_commit)));
    for (int op = 0; op < ops; ++op) {
      const int roll = static_cast<int>(rng.NextBelow(100));
      ChaosOp planned;
      if (roll < options.remove_percent && reference.num_facts() > 0) {
        FactId victim = static_cast<FactId>(
            rng.NextBelow(static_cast<uint64_t>(reference.num_facts())));
        const Fact fact = reference.fact(victim);
        planned.kind = ChaosOp::Kind::kRemoveFact;
        planned.source = fact.source;
        planned.label = fact.label;
        planned.target = fact.target;
        reference = reference.RemoveFacts({victim});
      } else if (roll < options.remove_percent + options.add_node_percent) {
        planned.kind = ChaosOp::Kind::kAddNode;
        planned.node_name = "chaos" + std::to_string(node_seq++);
        reference.AddNode(planned.node_name);
      } else if (reference.num_nodes() > 0) {
        planned.kind = ChaosOp::Kind::kAddFact;
        planned.source = static_cast<NodeId>(
            rng.NextBelow(static_cast<uint64_t>(reference.num_nodes())));
        planned.target = static_cast<NodeId>(
            rng.NextBelow(static_cast<uint64_t>(reference.num_nodes())));
        planned.label = labels[rng.NextBelow(labels.size())];
        planned.multiplicity = 1 + static_cast<Capacity>(rng.NextBelow(3));
        reference.AddFact(planned.source, planned.label, planned.target,
                          planned.multiplicity);
      } else {
        continue;  // empty degenerate instance: nothing removable/addable
      }
      commit.push_back(std::move(planned));
    }
  }
  return plan;
}

Status ApplyCommit(DbRegistry* registry, DbHandle* latest,
                   const std::vector<ChaosOp>& ops) {
  DeltaBatch batch = registry->BeginDelta(*latest);
  for (const ChaosOp& op : ops) {
    switch (op.kind) {
      case ChaosOp::Kind::kAddFact: {
        Result<FactId> added =
            batch.AddFact(op.source, op.label, op.target, op.multiplicity);
        if (!added.ok()) return added.status();
        break;
      }
      case ChaosOp::Kind::kRemoveFact: {
        Status removed = batch.RemoveFact(op.source, op.label, op.target);
        if (!removed.ok()) return removed;
        break;
      }
      case ChaosOp::Kind::kAddNode:
        batch.AddNode(op.node_name);
        break;
    }
  }
  Result<DbHandle> committed = batch.Commit();
  if (!committed.ok()) return committed.status();
  *latest = *std::move(committed);
  return Status::OK();
}

std::string AckPath(const std::string& dir) { return dir + "/chaos.ack"; }

/// Records the latest acknowledged-durable version. Only written between
/// failpoint-guarded operations, so a crash never tears it — plain
/// truncate-and-rewrite is enough for a process-crash model (the page
/// cache survives _exit).
void WriteAck(const std::string& dir, uint32_t version) {
  const std::string text = std::to_string(version) + "\n";
  int fd = ::open(AckPath(dir).c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return;
  ssize_t written = ::write(fd, text.data(), text.size());
  (void)written;
  ::close(fd);
}

uint32_t ReadAck(const std::string& dir) {
  std::FILE* f = std::fopen(AckPath(dir).c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long version = 0;  // NOLINT(runtime/int) — fscanf format
  const int got = std::fscanf(f, "%lu", &version);
  std::fclose(f);
  return got == 1 ? static_cast<uint32_t>(version) : 0;
}

/// The forked child's whole life: arm one site, run the storm, reopen,
/// ack as it goes. Returns the child's exit code; never throws (the
/// child _exits without unwinding).
int RunChaosChild(const ChaosPlan& plan, const std::string& dir,
                  std::string_view site, uint64_t seed,
                  const ChaosOptions& options) {
  fault::FailpointRegistry& failpoints = fault::FailpointRegistry::Instance();
  failpoints.ResetAll();
  Rng nth_rng(seed ^ HashSite(site));
  const uint64_t nth = 1 + nth_rng.NextBelow(options.max_crash_nth);
  failpoints.Arm(site, fault::FaultSpec::OnNth(fault::FaultKind::kCrash, nth));

  DbRegistry::Options registry_options = options.registry;
  registry_options.storage_dir = dir;
  {
    DbRegistry registry(registry_options);
    DbHandle latest = registry.Register(plan.base, "chaos");
    if (!registry.storage_status().ok()) return 3;
    WriteAck(dir, latest.version());
    for (const std::vector<ChaosOp>& commit : plan.commits) {
      Status applied = ApplyCommit(&registry, &latest, commit);
      // With only kCrash armed a commit either crashes or lands; any
      // status here is a logic error worth failing the sweep over.
      if (!applied.ok()) return 4;
      WriteAck(dir, latest.version());
    }
  }  // destructor closes journal writers → journal.close crashes here

  // Reopen inside the child so the restore-only sites (segment.mmap,
  // journal.open on an existing file, journal.truncate on a torn tail)
  // are crash-tested too. Reads must not change durable state.
  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir);
  if (!reopened.ok()) return 5;
  return 0;
}

std::string SpanToString(std::span<const FactId> facts) {
  std::string out = "[";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(facts[i]);
  }
  return out + "]";
}

/// Exact span equality between the restored index and the twin's —
/// restore replays the same deltas, so even fact ids must agree.
std::string CompareIndexes(const GraphDb& restored_db,
                           const LabelIndex& restored,
                           const LabelIndex& twin) {
  if (restored.labels() != twin.labels()) return "label set divergence";
  for (char label : restored.labels()) {
    for (NodeId v = 0; v < restored_db.num_nodes(); ++v) {
      std::span<const FactId> from = restored.FactsFrom(label, v);
      std::span<const FactId> twin_from = twin.FactsFrom(label, v);
      if (!std::equal(from.begin(), from.end(), twin_from.begin(),
                      twin_from.end())) {
        return std::string("FactsFrom('") + label + "', " + std::to_string(v) +
               ") divergence: " + SpanToString(from) + " vs " +
               SpanToString(twin_from);
      }
      std::span<const FactId> into = restored.FactsInto(label, v);
      std::span<const FactId> twin_into = twin.FactsInto(label, v);
      if (!std::equal(into.begin(), into.end(), twin_into.begin(),
                      twin_into.end())) {
        return std::string("FactsInto('") + label + "', " + std::to_string(v) +
               ") divergence";
      }
    }
  }
  return "";
}

}  // namespace

ChaosHarness::ChaosHarness(ChaosOptions options)
    : options_([&options] {
        options.engine.max_exact_search_nodes = options.max_exact_search_nodes;
        options.engine.max_word_length =
            options.workload.classify_max_word_length;
        return std::move(options);
      }()),
      engine_(options_.engine) {}

ChaosReport ChaosHarness::Run(std::string_view site, uint64_t seed) {
  ChaosReport report;
  report.seed = seed;
  report.site = std::string(site);
  auto fail = [&](const std::string& what) {
    report.mismatches.push_back("site " + report.site + " seed " +
                                std::to_string(seed) + ": " + what);
  };

  ChaosPlan plan = MakeChaosPlan(seed, options_);
  if (plan.generation_failed) {
    report.generation_failed = true;
    return report;
  }

  std::string site_slug = report.site;
  std::replace(site_slug.begin(), site_slug.end(), '/', '_');
  std::replace(site_slug.begin(), site_slug.end(), '.', '_');
  const std::filesystem::path root =
      options_.storage_root.empty()
          ? std::filesystem::temp_directory_path()
          : std::filesystem::path(options_.storage_root);
  const std::string dir =
      (root / ("rpqres_chaos_" + site_slug + "_" + std::to_string(seed) + "_" +
               std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    fail("create_directories: " + ec.message());
    return report;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    fail("fork failed");
    return report;
  }
  if (pid == 0) {
    // _exit: no destructors, no atexit — the child must not flush the
    // parent's duplicated stdio buffers or join inherited thread state.
    ::_exit(RunChaosChild(plan, dir, site, seed, options_));
  }

  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  if (WIFEXITED(wstatus)) {
    report.exit_status = WEXITSTATUS(wstatus);
    report.crashed = report.exit_status == fault::kCrashExitStatus;
    if (report.exit_status != 0 && !report.crashed) {
      fail("child exited " + std::to_string(report.exit_status) +
           " (want 0 or " + std::to_string(fault::kCrashExitStatus) + ")");
    }
  } else if (WIFSIGNALED(wstatus)) {
    fail("child killed by signal " + std::to_string(WTERMSIG(wstatus)));
  } else {
    fail("child ended in unknown state");
  }
  report.acked_version = ReadAck(dir);

  // Whatever the child left behind, reopen must succeed: every torn /
  // partial artifact is either repaired or skipped by the recovery rules.
  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir);
  if (!reopened.ok()) {
    fail("OpenStorage after crash: " + reopened.status().ToString());
    std::filesystem::remove_all(dir, ec);
    return report;
  }
  DbRegistry& restored_registry = **reopened;
  Result<DbHandle> restored = restored_registry.Resolve("chaos");
  if (!restored.ok()) {
    // Nothing durable: only valid if nothing was ever acknowledged.
    if (report.acked_version > 0) {
      fail("acked version " + std::to_string(report.acked_version) +
           " lost entirely: " + restored.status().ToString());
    }
    std::filesystem::remove_all(dir, ec);
    return report;
  }
  report.restored_version = restored->version();

  if (report.restored_version < report.acked_version) {
    fail("durability violation: restored version " +
         std::to_string(report.restored_version) + " < acked version " +
         std::to_string(report.acked_version));
  }
  const uint32_t max_version =
      1 + static_cast<uint32_t>(plan.commits.size());
  if (report.restored_version > max_version) {
    fail("restored version " + std::to_string(report.restored_version) +
         " beyond the storm's final version " + std::to_string(max_version));
    std::filesystem::remove_all(dir, ec);
    return report;
  }

  // Twin replay: same plan, same registry tuning, no storage. Restore
  // promises the exact in-memory state that was durable at version V.
  DbRegistry twin_registry(options_.registry);
  DbHandle twin = twin_registry.Register(plan.base, "chaos");
  for (uint32_t v = 2; v <= report.restored_version; ++v) {
    Status applied = ApplyCommit(&twin_registry, &twin, plan.commits[v - 2]);
    if (!applied.ok()) {
      fail("twin replay commit to version " + std::to_string(v) + ": " +
           applied.ToString());
      std::filesystem::remove_all(dir, ec);
      return report;
    }
  }

  if (SerializeGraphDb(restored->db()) != SerializeGraphDb(twin.db())) {
    fail("serialization divergence at restored version " +
         std::to_string(report.restored_version));
  }
  std::string index_diff = CompareIndexes(
      restored->db(), *restored->label_index(), *twin.label_index());
  if (!index_diff.empty()) {
    fail("index divergence at restored version " +
         std::to_string(report.restored_version) + ": " + index_diff);
  }

  if (report.ok()) {
    // Answer equality on the restored bytes. A scratch lineage forces a
    // fresh solve over the restored facts instead of a cache hit.
    DbRegistry scratch;
    ResilienceRequest request;
    request.regex = plan.regex;
    request.semantics = plan.semantics;
    request.db = scratch.Register(restored->db());
    ResilienceResponse restored_response = engine_.Evaluate(request);
    request.db = twin;
    ResilienceResponse twin_response = engine_.Evaluate(request);
    if (IsInconclusive(restored_response.status.code()) ||
        IsInconclusive(twin_response.status.code())) {
      ++report.inconclusive;
    } else if (restored_response.status.code() !=
               twin_response.status.code()) {
      fail("answer status divergence: restored " +
           restored_response.status.ToString() + " vs twin " +
           twin_response.status.ToString());
    } else if (twin_response.status.ok() &&
               (restored_response.result.infinite !=
                    twin_response.result.infinite ||
                (!twin_response.result.infinite &&
                 restored_response.result.value !=
                     twin_response.result.value))) {
      fail("answer value divergence at restored version " +
           std::to_string(report.restored_version));
    }
  }

  std::filesystem::remove_all(dir, ec);
  return report;
}

std::vector<ChaosReport> ChaosHarness::RunAllSites(uint64_t seed) {
  std::vector<ChaosReport> reports;
  const std::vector<std::string_view>& sites = fault::KnownSites();
  reports.reserve(sites.size());
  for (std::string_view site : sites) {
    reports.push_back(Run(site, seed));
  }
  return reports;
}

}  // namespace workload
}  // namespace rpqres
