// Seeded storage workloads for the persistence gates:
// storage_recovery_test and storage_fault_injection_test pin their
// answers, storage_timing_test their speed.

#ifndef RPQRES_TESTS_STORAGE_WORKLOADS_H_
#define RPQRES_TESTS_STORAGE_WORKLOADS_H_

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "fault/failpoints.h"
#include "graphdb/generators.h"
#include "util/rng.h"
#include "util/status.h"

namespace rpqres::storage_workloads {

/// A fresh temp directory path for this process.
inline std::string TempDir(const std::string& stem) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           (stem + "_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// `num_facts` random facts over 8 labels among num_facts / 10 nodes.
inline GraphDb PersistDb(int num_facts) {
  Rng rng(4242 + num_facts);
  return RandomGraphDb(&rng, /*num_nodes=*/num_facts / 10, num_facts,
                       {'a', 'x', 'b', 'm', 'n', 'o', 'p', 'q'},
                       /*max_multiplicity=*/4);
}

/// Bag resilience of ax*b on `db`; -1 when the request fails.
inline int64_t AxbResilience(ResilienceEngine& engine, const DbHandle& db) {
  ResilienceRequest request;
  request.regex = "ax*b";
  request.semantics = Semantics::kBag;
  request.db = db;
  const ResilienceResponse response = engine.Evaluate(request);
  if (!response.status.ok()) return -1;
  return response.result.infinite ? -2 : response.result.value;
}

/// The answer on `dir`'s lineage "bench" after reopening the directory.
inline int64_t RestoredAxbResilience(ResilienceEngine& engine,
                                     const std::string& dir) {
  Result<std::unique_ptr<DbRegistry>> opened = DbRegistry::OpenStorage(dir);
  if (!opened.ok()) return -1;
  Result<DbHandle> latest = (*opened)->Resolve("bench@latest");
  return latest.ok() ? AxbResilience(engine, *latest) : -1;
}

/// Registers PersistDb(num_facts) as lineage "bench" in a persistent
/// registry on `dir`, which writes its segment, and closes the registry.
inline Status WriteBenchSegment(const std::string& dir, int num_facts) {
  DbRegistry::Options options;
  options.storage_dir = dir;
  DbRegistry writer(options);
  writer.Register(PersistDb(num_facts), "bench");
  return writer.storage_status();
}

/// Arms every failpoint site at probability 0: each storage syscall
/// evaluates its site's spec, and none fires.
inline void ArmAllSitesAtZero() {
  for (std::string_view site : fault::KnownSites()) {
    fault::FailpointRegistry::Instance().Arm(
        site, fault::FaultSpec::WithProbability(fault::FaultKind::kEIO,
                                                /*probability=*/0.0,
                                                /*seed=*/1));
  }
}

/// One side of the failpoint commit storm: a persistent registry on
/// `dir` whose lineage "bench" receives the same op stream as every
/// other side's.
struct StormSide {
  explicit StormSide(std::string storage_dir) : dir(std::move(storage_dir)) {
    DbRegistry::Options options;
    options.storage_dir = dir;
    registry = std::make_unique<DbRegistry>(options);
    latest = registry->Register(PersistDb(2000), "bench");
  }

  /// Commits `commits` deltas of one x-fact each.
  Status CommitBatch(int commits) {
    for (int i = 0; i < commits; ++i) {
      const int nodes = latest.db().num_nodes();
      const NodeId u = static_cast<NodeId>(ops.NextBelow(nodes));
      const NodeId v = static_cast<NodeId>(ops.NextBelow(nodes));
      DeltaBatch batch = registry->BeginDelta(latest);
      (void)batch.AddFact(u, 'x', v);
      Result<DbHandle> committed = batch.Commit();
      if (!committed.ok()) return committed.status();
      latest = *std::move(committed);
    }
    return registry->storage_status();
  }

  std::string dir;
  std::unique_ptr<DbRegistry> registry;
  DbHandle latest;
  Rng ops{987654321};
};

}  // namespace rpqres::storage_workloads

#endif  // RPQRES_TESTS_STORAGE_WORKLOADS_H_
