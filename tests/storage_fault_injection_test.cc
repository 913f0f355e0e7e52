// Fault-injected storage acceptance: transient faults retry and heal,
// permanent faults roll the commit back and degrade the registry to
// read-only (later commits shed kUnavailable instead of silently losing
// durability), ENOSPC inside the compaction crash window recovers through
// the journal skip rule, torn journal appends repair before retry, and
// Restore reports — not hides — the temp files it sweeps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "fault/failpoints.h"
#include "graphdb/serialization.h"
#include "util/status.h"

namespace rpqres {
namespace {

namespace fs = std::filesystem;

class StorageFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailpointRegistry::Instance().ResetAll();
    dir_ = (fs::temp_directory_path() /
            ("rpqres_fault_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::FailpointRegistry::Instance().ResetAll();
    fs::remove_all(dir_);
  }

  static GraphDb SeedDb() {
    GraphDb db;
    NodeId a = db.AddNode("a");
    NodeId b = db.AddNode("b");
    NodeId c = db.AddNode("c");
    db.AddFact(a, 'x', b);
    db.AddFact(b, 'x', c, 2);
    db.AddFact(c, 'y', a);
    return db;
  }

  static DbRegistry::Options FastRetryOptions() {
    DbRegistry::Options options;
    options.storage_retry_attempts = 1;
    options.storage_retry_backoff_micros = 0;
    return options;
  }

  /// One two-fact delta commit; returns the committed handle.
  static Result<DbHandle> CommitTwoFacts(DbRegistry* registry,
                                         const DbHandle& parent) {
    DeltaBatch batch = registry->BeginDelta(parent);
    NodeId n = batch.AddNode();
    EXPECT_TRUE(batch.AddFact(0, 'x', n).ok());
    return batch.Commit();
  }

  /// Every fault is counted once, per op: the registry's storage_faults
  /// is the sum of the per-op counts the exporter publishes.
  static void ExpectFaultsCountedOnce(const DbRegistry& registry) {
    int64_t per_op = 0;
    for (const auto& [op, count] : registry.storage_fault_counts()) {
      per_op += count;
    }
    EXPECT_GT(per_op, 0);
    EXPECT_EQ(registry.stats().storage_faults, per_op);
  }

  std::string dir_;
};

TEST_F(StorageFaultInjectionTest, TransientFaultRetriesAndHeals) {
  DbRegistry::Options options = FastRetryOptions();
  options.storage_dir = dir_;
  options.compaction_min_overlay = 1 << 30;
  auto registry = std::make_unique<DbRegistry>(options);
  DbHandle latest = registry->Register(SeedDb(), "db");

  fault::FailpointRegistry::Instance().Arm(
      fault::sites::kJournalWrite,
      fault::FaultSpec::Once(fault::FaultKind::kEIO));
  Result<DbHandle> committed = CommitTwoFacts(registry.get(), latest);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  latest = *std::move(committed);

  // The retry healed it: still healthy, fault + retry on the record.
  EXPECT_EQ(registry->health(), HealthState::kHealthy);
  EXPECT_TRUE(registry->storage_status().ok());
  EXPECT_GE(registry->stats().storage_retries, 1);
  EXPECT_GE(registry->stats().storage_faults, 1);
  EXPECT_EQ(registry->stats().commits_unavailable, 0);
  bool counted = false;
  for (const auto& [op, count] : registry->storage_fault_counts()) {
    if (op == "journal_append" && count >= 1) counted = true;
  }
  EXPECT_TRUE(counted);
  ExpectFaultsCountedOnce(*registry);

  // And the retried group is fully durable.
  const std::string expected = SerializeGraphDb(latest.db());
  registry.reset();
  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<DbHandle> restored = (*reopened)->Resolve("db");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->version(), 2u);
  EXPECT_EQ(SerializeGraphDb(restored->db()), expected);
}

TEST_F(StorageFaultInjectionTest, PermanentFaultRollsBackAndShedsCommits) {
  DbRegistry::Options options = FastRetryOptions();
  options.storage_dir = dir_;
  options.compaction_min_overlay = 1 << 30;
  DbRegistry registry(options);
  DbHandle latest = registry.Register(SeedDb(), "db");

  fault::FailpointRegistry::Instance().Arm(
      fault::sites::kJournalWrite,
      fault::FaultSpec::Always(fault::FaultKind::kEIO));
  Result<DbHandle> committed = CommitTwoFacts(&registry, latest);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kUnavailable);

  // Rolled back: the lineage still serves version 1, nothing published.
  Result<DbHandle> resolved = registry.Resolve("db");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->version(), 1u);
  EXPECT_EQ(registry.stats().commits, 0);
  EXPECT_EQ(registry.stats().commits_unavailable, 1);
  EXPECT_EQ(registry.health(), HealthState::kDegraded);
  EXPECT_FALSE(registry.storage_status().ok());
  EXPECT_EQ(registry.gauges().storage_health, 1);
  ExpectFaultsCountedOnce(registry);

  // The fault is gone, but the latch is one-way: commits keep shedding
  // with the original cause until the registry is replaced...
  fault::FailpointRegistry::Instance().ResetAll();
  Result<DbHandle> after = CommitTwoFacts(&registry, *resolved);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(after.status().message().find("degraded"), std::string::npos);
  EXPECT_EQ(registry.stats().commits_unavailable, 2);

  // ... while reads keep serving from memory.
  Result<DbHandle> read = registry.Resolve("db@1");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->db().num_facts(), SeedDb().num_facts());
}

// Satellite: ENOSPC inside the compaction crash window — the fresh
// segment is renamed into place but the journal reset fails. The commit
// is durable (segment), the registry degrades, and reopen lands on the
// compacted version because Restore skips stale groups at or below the
// segment's version.
TEST_F(StorageFaultInjectionTest, EnospcInCompactionWindowRecoversViaSkipRule) {
  DbRegistry::Options options = FastRetryOptions();
  options.storage_dir = dir_;
  options.compaction_min_overlay = 1;
  options.compaction_fraction = 0.0;
  auto registry = std::make_unique<DbRegistry>(options);
  DbHandle latest = registry->Register(SeedDb(), "db");

  // Commit 2: one overlay fact, at the threshold — journaled, not
  // compacted.
  Result<DbHandle> v2 = CommitTwoFacts(registry.get(), latest);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(v2->db().is_versioned());
  EXPECT_EQ(registry->stats().compactions, 0);

  // Commit 3: the overlay (two facts) now exceeds the threshold —
  // compacts. ENOSPC on
  // every truncate makes the journal reset fail after the segment rename.
  fault::FailpointRegistry::Instance().Arm(
      fault::sites::kJournalTruncate,
      fault::FaultSpec::Always(fault::FaultKind::kENOSPC));
  Result<DbHandle> v3 = CommitTwoFacts(registry.get(), *v2);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_FALSE(v3->db().is_versioned());
  EXPECT_EQ(registry->stats().compactions, 1);
  // Durable, acknowledged — but the registry knows the journal is stale.
  EXPECT_EQ(registry->health(), HealthState::kDegraded);
  EXPECT_NE(registry->storage_status().message().find("No space"),
            std::string::npos)
      << registry->storage_status().ToString();
  fault::FailpointRegistry::Instance().ResetAll();

  // The stale group for version 2 is still in the journal on disk.
  const std::string journal_path =
      dir_ + "/lineage_" + std::to_string(v3->lineage()) + ".journal";
  ASSERT_TRUE(fs::exists(journal_path));
  EXPECT_GT(fs::file_size(journal_path), 16u);

  const std::string expected = SerializeGraphDb(v3->db());
  registry.reset();
  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<DbHandle> restored = (*reopened)->Resolve("db");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->version(), 3u);
  EXPECT_EQ(SerializeGraphDb(restored->db()), expected);
  // Version 2 was folded into the compacted base; only the window is back.
  EXPECT_FALSE((*reopened)->Resolve("db@2").ok());
}

TEST_F(StorageFaultInjectionTest, TornJournalAppendRepairsBeforeRetry) {
  DbRegistry::Options options;  // default retry budget
  options.storage_dir = dir_;
  options.storage_retry_backoff_micros = 0;
  options.compaction_min_overlay = 1 << 30;
  auto registry = std::make_unique<DbRegistry>(options);
  DbHandle latest = registry->Register(SeedDb(), "db");

  // The first append tears mid-record: bytes land, the call errors. The
  // writer must truncate back to the last good boundary before the retry
  // re-appends the whole group, or the journal framing is garbage.
  fault::FaultSpec torn = fault::FaultSpec::Once(fault::FaultKind::kTornWrite);
  torn.fraction = 0.5;
  fault::FailpointRegistry::Instance().Arm(fault::sites::kJournalWrite, torn);
  Result<DbHandle> v2 = CommitTwoFacts(registry.get(), latest);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(registry->health(), HealthState::kHealthy);
  EXPECT_GE(registry->stats().storage_retries, 1);

  Result<DbHandle> v3 = CommitTwoFacts(registry.get(), *v2);
  ASSERT_TRUE(v3.ok());
  const std::string expected_v2 = SerializeGraphDb(v2->db());
  const std::string expected_v3 = SerializeGraphDb(v3->db());

  registry.reset();
  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Result<DbHandle> r2 = (*reopened)->Resolve("db@2");
  Result<DbHandle> r3 = (*reopened)->Resolve("db@3");
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(SerializeGraphDb(r2->db()), expected_v2);
  EXPECT_EQ(SerializeGraphDb(r3->db()), expected_v3);
}

TEST_F(StorageFaultInjectionTest, RegisterFaultDegradesButServesFromMemory) {
  DbRegistry::Options options = FastRetryOptions();
  options.storage_dir = dir_;
  DbRegistry registry(options);

  fault::FailpointRegistry::Instance().Arm(
      fault::sites::kSegmentWrite,
      fault::FaultSpec::Always(fault::FaultKind::kEIO));
  DbHandle handle = registry.Register(SeedDb(), "db");
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(registry.health(), HealthState::kDegraded);
  ExpectFaultsCountedOnce(registry);
  fault::FailpointRegistry::Instance().ResetAll();

  // No segment reached the directory (the temp file was cleaned up).
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_FALSE(entry.path().filename().string().ends_with(".seg"));
    EXPECT_FALSE(entry.path().filename().string().ends_with(".tmp"));
  }

  // Reads serve from memory; commits shed.
  Result<DbHandle> read = registry.Resolve("db");
  ASSERT_TRUE(read.ok());
  Result<DbHandle> committed = CommitTwoFacts(&registry, handle);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kUnavailable);
}

// Satellite: the leftover-*.tmp sweep at Restore reports what it removed.
TEST_F(StorageFaultInjectionTest, RestoreReportsSweptTmpFiles) {
  {
    DbRegistry::Options options;
    options.storage_dir = dir_;
    DbRegistry registry(options);
    registry.Register(SeedDb(), "db");
    ASSERT_TRUE(registry.storage_status().ok());
  }
  // A crashed segment write leaves its temp file behind.
  std::ofstream(dir_ + "/lineage_9.seg.tmp") << "partial segment bytes";

  Result<std::unique_ptr<DbRegistry>> reopened = DbRegistry::OpenStorage(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<std::string> swept = (*reopened)->swept_tmp_files();
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0], "lineage_9.seg.tmp");
  EXPECT_EQ((*reopened)->gauges().storage_swept_tmp_files, 1);
  EXPECT_FALSE(fs::exists(dir_ + "/lineage_9.seg.tmp"));
  // Sweeping is hygiene, not damage: the registry stays healthy.
  EXPECT_EQ((*reopened)->health(), HealthState::kHealthy);
}

}  // namespace
}  // namespace rpqres
