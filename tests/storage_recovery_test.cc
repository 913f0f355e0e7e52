// Crash-safe recovery acceptance: a persistent DbRegistry reopened from
// a journal truncated at EVERY byte boundary must land on the last fully
// committed version — never a torn one, never an error. Also covers
// segment corruption (kDataLoss), drop-record replay, leftover temp
// files, storage gauges, and the ShardedRegistry persistence plumbing.
// A segment cold load, a text reparse and a 100-commit journal replay
// answer a query exactly like the database they restore.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "graphdb/serialization.h"
#include "serve/sharded_registry.h"
#include "storage_workloads.h"
#include "util/rng.h"
#include "util/status.h"

namespace rpqres {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid())))
      .string();
}

GraphDb SeedDb() {
  GraphDb db;
  NodeId a = db.AddNode("a");
  NodeId b = db.AddNode("b");
  NodeId c = db.AddNode("c");
  db.AddFact(a, 'x', b);
  db.AddFact(b, 'x', c, 2);
  db.AddFact(c, 'y', a);
  return db;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Builds a 4-version persistent lineage (compaction disabled), recording
// each version's serialization and the journal size at each commit
// boundary.
struct BuiltLineage {
  std::string dir;
  std::string segment_path;
  std::string journal_path;
  /// version -> serialization text.
  std::map<uint32_t, std::string> texts;
  /// version -> journal byte size once that version was durable.
  std::map<uint32_t, int64_t> journal_size_at;
};

BuiltLineage BuildLineage(const std::string& stem) {
  BuiltLineage built;
  built.dir = TempDir(stem);
  fs::remove_all(built.dir);
  DbRegistry::Options options;
  options.storage_dir = built.dir;
  options.compaction_min_overlay = 1 << 30;  // never compact
  DbRegistry registry(options);
  DbHandle latest = registry.Register(SeedDb(), "crash");
  built.segment_path = built.dir + "/lineage_" +
                       std::to_string(latest.lineage()) + ".seg";
  built.journal_path = built.dir + "/lineage_" +
                       std::to_string(latest.lineage()) + ".journal";
  built.texts[1] = SerializeGraphDb(latest.db());
  built.journal_size_at[1] =
      static_cast<int64_t>(fs::file_size(built.journal_path));
  for (uint32_t version = 2; version <= 4; ++version) {
    DeltaBatch batch = registry.BeginDelta(latest);
    NodeId n = batch.AddNode("v" + std::to_string(version));
    EXPECT_TRUE(batch.AddFact(0, 'x', n, version).ok());
    if (version == 3) {
      EXPECT_TRUE(batch.RemoveFact(0, 'x', 1).ok());
    }
    Result<DbHandle> committed = batch.Commit();
    EXPECT_TRUE(committed.ok());
    latest = *std::move(committed);
    built.texts[version] = SerializeGraphDb(latest.db());
    built.journal_size_at[version] =
        static_cast<int64_t>(fs::file_size(built.journal_path));
  }
  EXPECT_TRUE(registry.storage_status().ok());
  return built;
}

TEST(StorageRecoveryTest, EveryTruncationLandsOnLastCommittedVersion) {
  BuiltLineage built = BuildLineage("rpqres_recovery_sweep");
  const std::string journal = ReadFile(built.journal_path);
  ASSERT_EQ(static_cast<int64_t>(journal.size()),
            built.journal_size_at[4]);

  const std::string work_dir = TempDir("rpqres_recovery_work");
  // Sweep every prefix of the journal, from bare header to full file —
  // this covers every byte boundary of every record, the final one
  // included.
  for (int64_t keep = built.journal_size_at[1];
       keep <= built.journal_size_at[4]; ++keep) {
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    fs::copy_file(built.segment_path,
                  work_dir + "/" +
                      fs::path(built.segment_path).filename().string());
    WriteFile(work_dir + "/" +
                  fs::path(built.journal_path).filename().string(),
              journal.substr(0, static_cast<size_t>(keep)));

    uint32_t expect_version = 1;
    for (const auto& [version, size] : built.journal_size_at) {
      if (keep >= size) expect_version = version;
    }

    Result<std::unique_ptr<DbRegistry>> reopened =
        DbRegistry::OpenStorage(work_dir);
    ASSERT_TRUE(reopened.ok())
        << "keep=" << keep << ": " << reopened.status().ToString();
    Result<DbHandle> latest = (*reopened)->Resolve("crash@latest");
    ASSERT_TRUE(latest.ok()) << "keep=" << keep;
    EXPECT_EQ(latest->version(), expect_version) << "keep=" << keep;
    EXPECT_EQ(SerializeGraphDb(latest->db()), built.texts[expect_version])
        << "keep=" << keep;
    // Every version up to the recovered one is present and exact.
    for (uint32_t version = 1; version <= expect_version; ++version) {
      Result<DbHandle> handle =
          (*reopened)->Resolve("crash@" + std::to_string(version));
      ASSERT_TRUE(handle.ok()) << "keep=" << keep << " version=" << version;
      EXPECT_EQ(SerializeGraphDb(handle->db()), built.texts[version]);
    }
    // The truncated tail was chopped on reopen: committing works again.
    DeltaBatch batch = (*reopened)->BeginDelta(*latest);
    ASSERT_TRUE(batch.AddFact(0, 'y', 1).ok());
    EXPECT_TRUE(batch.Commit().ok());
    EXPECT_TRUE((*reopened)->storage_status().ok()) << "keep=" << keep;
  }
  fs::remove_all(work_dir);
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, CorruptSegmentIsDataLoss) {
  BuiltLineage built = BuildLineage("rpqres_recovery_corrupt");
  std::string segment = ReadFile(built.segment_path);
  segment[segment.size() / 2] ^= 0x10;
  WriteFile(built.segment_path, segment);
  Result<std::unique_ptr<DbRegistry>> reopened =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss)
      << reopened.status().ToString();
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, JournalWithoutSegmentIsDataLoss) {
  BuiltLineage built = BuildLineage("rpqres_recovery_orphan");
  fs::remove(built.segment_path);
  Result<std::unique_ptr<DbRegistry>> reopened =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, LeftoverTempFilesAreSwept) {
  BuiltLineage built = BuildLineage("rpqres_recovery_tmp");
  WriteFile(built.segment_path + ".tmp", "half-written garbage");
  Result<std::unique_ptr<DbRegistry>> reopened =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(fs::exists(built.segment_path + ".tmp"));
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, DropRecordsReplay) {
  BuiltLineage built = BuildLineage("rpqres_recovery_drop");
  {
    Result<std::unique_ptr<DbRegistry>> reopened =
        DbRegistry::OpenStorage(built.dir);
    ASSERT_TRUE(reopened.ok());
    Result<DbHandle> v2 = (*reopened)->Resolve("crash@2");
    ASSERT_TRUE(v2.ok());
    EXPECT_TRUE((*reopened)->Unregister(v2->id()));
    EXPECT_TRUE((*reopened)->storage_status().ok());
  }
  Result<std::unique_ptr<DbRegistry>> reopened =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->Resolve("crash@2").ok());
  Result<DbHandle> latest = (*reopened)->Resolve("crash@latest");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version(), 4u);
  // Dropping the whole lineage removes its files; the next open is empty.
  EXPECT_GT((*reopened)->UnregisterLineage(latest->lineage()), 0);
  EXPECT_FALSE(fs::exists(built.segment_path));
  EXPECT_FALSE(fs::exists(built.journal_path));
  Result<std::unique_ptr<DbRegistry>> empty =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ((*empty)->size(), 0u);
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, ResolveErrorsNameLineageAndVersions) {
  BuiltLineage built = BuildLineage("rpqres_recovery_resolve");
  Result<std::unique_ptr<DbRegistry>> reopened =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_TRUE(reopened.ok());
  Result<DbHandle> missing_version = (*reopened)->Resolve("crash@9");
  ASSERT_FALSE(missing_version.ok());
  EXPECT_NE(missing_version.status().message().find("crash"),
            std::string::npos);
  EXPECT_NE(missing_version.status().message().find("available: 1, 2, 3, 4"),
            std::string::npos)
      << missing_version.status().message();
  Result<DbHandle> missing_name = (*reopened)->Resolve("nope@1");
  ASSERT_FALSE(missing_name.ok());
  EXPECT_NE(missing_name.status().message().find("'crash'"),
            std::string::npos)
      << missing_name.status().message();
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, GaugesReportStorage) {
  BuiltLineage built = BuildLineage("rpqres_recovery_gauges");
  Result<std::unique_ptr<DbRegistry>> reopened =
      DbRegistry::OpenStorage(built.dir);
  ASSERT_TRUE(reopened.ok());
  DbRegistry::Gauges gauges = (*reopened)->gauges();
  EXPECT_EQ(gauges.storage_persistent, 1);
  EXPECT_GT(gauges.storage_segment_bytes, 0);
  EXPECT_GT(gauges.storage_journal_records, 0);
  EXPECT_GT(gauges.storage_journal_bytes, 0);
  EXPECT_GE(gauges.storage_replay_micros, 0);
  // A non-persistent registry reports none of it.
  DbRegistry plain;
  EXPECT_EQ(plain.gauges().storage_persistent, 0);
  fs::remove_all(built.dir);
}

TEST(StorageRecoveryTest, ShardedRegistryRoundTrips) {
  const std::string dir = TempDir("rpqres_recovery_sharded");
  fs::remove_all(dir);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  DbRegistry::Options registry_options;
  registry_options.storage_dir = dir;
  std::map<std::string, std::string> texts;
  {
    serve::ShardedRegistry sharded(3, engine_options, registry_options);
    for (const std::string& name : {"alpha", "beta", "gamma", "delta"}) {
      DbHandle handle = sharded.Register(SeedDb(), name);
      DbRegistry& registry =
          sharded.registry(sharded.ShardForName(name));
      DeltaBatch batch = registry.BeginDelta(handle);
      ASSERT_TRUE(batch.AddFact(0, 'z', 2).ok());
      Result<DbHandle> committed = batch.Commit();
      ASSERT_TRUE(committed.ok());
      texts[name] = SerializeGraphDb(committed->db());
    }
  }
  Result<std::unique_ptr<serve::ShardedRegistry>> reopened =
      serve::ShardedRegistry::OpenStorage(3, engine_options,
                                          registry_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const auto& [name, text] : texts) {
    Result<DbHandle> handle = (*reopened)->Resolve(name + "@latest");
    ASSERT_TRUE(handle.ok()) << name;
    EXPECT_EQ(handle->version(), 2u) << name;
    EXPECT_EQ(SerializeGraphDb(handle->db()), text) << name;
  }
  fs::remove_all(dir);
}

TEST(StorageRecoveryTest, ColdLoadReparseAndReplayAnswerAlike) {
  using storage_workloads::AxbResilience;
  using storage_workloads::PersistDb;
  ResilienceEngine engine;
  for (auto [num_facts, answer] : {std::pair{4000, 774}, {64000, 11865}}) {
    const std::string dir = storage_workloads::TempDir("rpqres_persist");
    ASSERT_TRUE(storage_workloads::WriteBenchSegment(dir, num_facts).ok());
    EXPECT_EQ(storage_workloads::RestoredAxbResilience(engine, dir), answer)
        << num_facts;
    DbRegistry reparsed;
    Result<GraphDb> parsed =
        ParseGraphDb(SerializeGraphDb(PersistDb(num_facts)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(AxbResilience(engine, reparsed.Register(*std::move(parsed))),
              answer)
        << num_facts;
    fs::remove_all(dir);
  }

  // Restore = segment load + 100 journaled delta groups (compaction off,
  // so every group survives).
  const std::string dir = storage_workloads::TempDir("rpqres_replay");
  int64_t live = 0;
  {
    DbRegistry::Options options;
    options.storage_dir = dir;
    options.compaction_min_overlay = 1 << 30;
    DbRegistry registry(options);
    Rng rng(271828);
    DbHandle latest = registry.Register(PersistDb(2000), "bench");
    for (int commit = 0; commit < 100; ++commit) {
      DeltaBatch batch = registry.BeginDelta(latest);
      const int nodes = latest.db().num_nodes();
      const NodeId u = static_cast<NodeId>(rng.NextBelow(nodes));
      const NodeId v = static_cast<NodeId>(rng.NextBelow(nodes));
      ASSERT_TRUE(batch.AddFact(u, 'x', v).ok());
      const NodeId n = batch.AddNode();
      ASSERT_TRUE(batch.AddFact(n, 'a', u).ok());
      Result<DbHandle> committed = batch.Commit();
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      latest = *std::move(committed);
    }
    ASSERT_TRUE(registry.storage_status().ok());
    live = AxbResilience(engine, latest);
  }
  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE((*reopened)->gauges().storage_journal_records, 100);
  Result<DbHandle> restored = (*reopened)->Resolve("bench@latest");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->version(), 101u);
  EXPECT_GE(live, 0);
  EXPECT_EQ(AxbResilience(engine, *restored), live);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rpqres
