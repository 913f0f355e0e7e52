// Storage speed gates, on the seeded workloads of storage_workloads.h:
//  * a segment cold load of 64k facts is at least 5x faster than
//    reparsing the text serialization and registering it;
//  * compiled-in failpoints cost little on the commit path. Two commit
//    storms get the same op stream, one with failpoints disabled and one
//    with every site armed at probability 0, alternating batch by batch.
//    The disabled check, priced alone and times the checks one commit
//    makes, stays under 1% of the disabled commit p50, and the armed p50
//    stays within 1.25x + 25 µs of the disabled p50.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "fault/failpoints.h"
#include "graphdb/serialization.h"
#include "storage_workloads.h"

namespace rpqres {
namespace {

using storage_workloads::ArmAllSitesAtZero;
using storage_workloads::PersistDb;
using storage_workloads::StormSide;
using storage_workloads::TempDir;
using storage_workloads::WriteBenchSegment;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TEST(StorageTimingTest, SegmentColdLoadIsFiveTimesTextReparse) {
  constexpr int kFacts = 64000;
  const std::string dir = TempDir("rpqres_timing_persist");
  ASSERT_TRUE(WriteBenchSegment(dir, kFacts).ok());
  const std::string text = SerializeGraphDb(PersistDb(kFacts));

  // The page cache stays warm across reps: what a load skips is the
  // parse, not the disk.
  std::vector<double> load_micros, reparse_micros;
  for (int rep = 0; rep < 15; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    Result<std::unique_ptr<DbRegistry>> opened = DbRegistry::OpenStorage(dir);
    load_micros.push_back(MicrosSince(start));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    DbRegistry registry;
    Result<GraphDb> parsed = ParseGraphDb(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    registry.Register(*std::move(parsed), "bench");
    reparse_micros.push_back(MicrosSince(start));
  }
  std::filesystem::remove_all(dir);
  const double load_p50 = Median(load_micros);
  const double reparse_p50 = Median(reparse_micros);
  std::printf("cold-load gate: load p50 %.0f us, reparse p50 %.0f us, "
              "ratio %.1f\n",
              load_p50, reparse_p50, reparse_p50 / load_p50);
  EXPECT_GE(reparse_p50, 5.0 * load_p50);
}

TEST(StorageTimingTest, FailpointsCostLittleOnCommits) {
  constexpr int kBatch = 16;
  constexpr int kWarmupRounds = 3;
  constexpr int kRounds = 40;
  fault::FailpointRegistry& failpoints = fault::FailpointRegistry::Instance();
  failpoints.ResetAll();
  StormSide disabled(TempDir("rpqres_timing_disabled"));
  StormSide armed(TempDir("rpqres_timing_armed"));

  std::vector<double> disabled_micros, armed_micros;
  for (int round = 0; round < kWarmupRounds + kRounds; ++round) {
    for (StormSide* side : {&disabled, &armed}) {
      // Arming happens outside the timed region.
      if (side == &armed) {
        ArmAllSitesAtZero();
      } else {
        failpoints.ResetAll();
      }
      const auto start = std::chrono::steady_clock::now();
      ASSERT_TRUE(side->CommitBatch(kBatch).ok());
      if (round >= kWarmupRounds) {
        (side == &armed ? armed_micros : disabled_micros)
            .push_back(MicrosSince(start) / kBatch);
      }
    }
  }
  // The last batch ran armed: its counters tell how many failpoint checks
  // one commit makes.
  EXPECT_EQ(failpoints.TotalFires(), 0);
  int64_t evaluations = 0;
  for (const fault::SiteStats& site : failpoints.Stats()) {
    evaluations += site.evaluations;
  }
  const double checks_per_commit = static_cast<double>(evaluations) / kBatch;
  failpoints.ResetAll();
  std::filesystem::remove_all(disabled.dir);
  std::filesystem::remove_all(armed.dir);

  // The disabled check alone: a relaxed load and a branch.
  constexpr int kChecks = 1 << 20;
  int fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kChecks; ++i) {
    fired += fault::Check(fault::sites::kJournalWrite).fired() ? 1 : 0;
  }
  const double check_nanos = MicrosSince(start) * 1e3 / kChecks;
  EXPECT_EQ(fired, 0);

  const double disabled_p50 = Median(disabled_micros);
  const double armed_p50 = Median(armed_micros);
  const double disabled_share =
      check_nanos * checks_per_commit / (disabled_p50 * 1e3);
  std::printf("failpoint gates: %.2f ns x %.1f checks = %.4f%% of the "
              "%.1f us commit p50; armed p50 %.1f us, ratio %.3f\n",
              check_nanos, checks_per_commit, 100 * disabled_share,
              disabled_p50, armed_p50, armed_p50 / disabled_p50);
  EXPECT_LE(disabled_share, 0.01);
  EXPECT_LE(armed_p50, disabled_p50 * 1.25 + 25.0);
}

}  // namespace
}  // namespace rpqres
