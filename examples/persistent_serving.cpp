// examples/persistent_serving — the storage layer end to end: a registry
// with a storage_dir persists every lineage as a checksummed segment plus
// a delta journal, survives process death, and comes back byte-identical
// with DbRegistry::OpenStorage.
//
// Scenario: the same "orders" graph as versioned_serving, but this time
// the process "crashes" (the registry is destroyed) after two commits,
// and a fresh registry restores every version from disk — the base from
// the segment, the commits by journal replay — and answers the same
// query without re-parsing any database text.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "graphdb/serialization.h"

using namespace rpqres;

namespace {

void Show(const char* what, const ResilienceResponse& response) {
  if (!response.status.ok()) {
    std::printf("%-26s -> %s\n", what, response.status.ToString().c_str());
    return;
  }
  std::string value = response.result.infinite
                          ? "inf"
                          : std::to_string(response.result.value);
  std::printf("%-26s -> RES = %s\n", what, value.c_str());
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rpqres_persist_example";
  fs::remove_all(dir);

  ResilienceEngine engine;
  std::string serialized_v3;

  // --- Session one: register, commit twice, "crash". -------------------
  {
    DbRegistry::Options options;
    options.storage_dir = dir.string();
    DbRegistry registry(options);

    GraphDb db;
    NodeId intake = db.AddNode("intake");
    NodeId review = db.AddNode("review");
    NodeId ledger = db.AddNode("ledger");
    NodeId archive = db.AddNode("archive");
    db.AddFact(intake, 'a', review);
    db.AddFact(review, 'x', ledger, 3);
    db.AddFact(ledger, 'b', archive);
    DbHandle v1 = registry.Register(std::move(db), "orders");
    std::printf("registered '%s' v%u -> %s/lineage_%llu.seg\n",
                v1.name().c_str(), v1.version(), dir.c_str(),
                static_cast<unsigned long long>(v1.lineage()));

    DeltaBatch d1 = registry.BeginDelta(v1);
    NodeId fast_lane = d1.AddNode("fast_lane");
    d1.AddFact(review, 'x', fast_lane).ValueOrDie();
    d1.AddFact(fast_lane, 'b', archive).ValueOrDie();
    DbHandle v2 = d1.Commit().ValueOrDie();

    DeltaBatch d2 = registry.BeginDelta(v2);
    if (!d2.RemoveFact(intake, 'a', review).ok()) {
      std::printf("remove failed\n");
      return 1;
    }
    d2.AddFact(intake, 'a', review, 2).ValueOrDie();
    DbHandle v3 = d2.Commit().ValueOrDie();
    serialized_v3 = SerializeGraphDb(v3.db());

    DbRegistry::Gauges gauges = registry.gauges();
    std::printf("on disk: segment %lld bytes, journal %lld records\n",
                static_cast<long long>(gauges.storage_segment_bytes),
                static_cast<long long>(gauges.storage_journal_records));
    if (!registry.storage_status().ok()) {
      std::printf("storage error: %s\n",
                  registry.storage_status().ToString().c_str());
      return 1;
    }
    // The registry is destroyed here with v2/v3 only in the journal —
    // exactly what an unplanned process death would leave behind.
  }

  // --- Session two: restore from disk. ---------------------------------
  auto reopened = DbRegistry::OpenStorage(dir.string());
  if (!reopened.ok()) {
    std::printf("restore failed: %s\n",
                reopened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<DbRegistry> registry = std::move(*reopened);
  std::printf("restored in %lld us (segment load + journal replay)\n",
              static_cast<long long>(registry->gauges().storage_replay_micros));

  // Every version is back: the base (v1) built from the segment's fact
  // table, v2 and v3 replayed from the journal on top of it.
  for (const char* ref : {"orders@1", "orders@2", "orders@3"}) {
    auto handle = registry->Resolve(ref);
    if (!handle.ok()) {
      std::printf("%s: %s\n", ref, handle.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s restored (%s)\n", ref,
                handle->db().is_versioned() ? "overlay over segment base"
                                            : "segment base");
  }
  DbHandle latest = registry->Resolve("orders").ValueOrDie();
  std::printf("latest is v%u, byte-identical to pre-crash: %s\n",
              latest.version(),
              SerializeGraphDb(latest.db()) == serialized_v3 ? "yes" : "NO");

  // And it serves: the engine solves over the restored facts.
  ResilienceRequest request;
  request.regex = "ax*b";
  request.semantics = Semantics::kBag;
  request.db_ref = "orders@latest";
  request.registry = registry.get();
  Show("orders@latest (restored)", engine.Evaluate(request));

  // Unknown references now name what *is* available.
  request.db_ref = "orders@9";
  Show("orders@9 (bad version)", engine.Evaluate(request));

  fs::remove_all(dir);
  return 0;
}
