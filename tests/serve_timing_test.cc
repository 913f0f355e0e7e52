// Scale-out gate. The seeded fleet of serve_fleet.h at 4 shards must read
// at least 1.5 times as fast as at one shard: each shard has a fixed
// engine, and 4 result caches hold the read keys that one cache thrashes.

#include <gtest/gtest.h>

#include <cstdio>

#include "serve_fleet.h"

namespace rpqres {
namespace {

TEST(ServeTimingTest, FourShardsReadAtLeastOneAndAHalfTimesOneShard) {
  const serve_fleet::FleetRun single = serve_fleet::RunFleet(1);
  const serve_fleet::FleetRun sharded = serve_fleet::RunFleet(4);
  ASSERT_EQ(single.errors, 0);
  ASSERT_EQ(sharded.errors, 0);
  const double single_qps = single.reads / (single.wall_micros / 1e6);
  const double sharded_qps = sharded.reads / (sharded.wall_micros / 1e6);
  std::printf("scale-out gate: 1 shard %.0f reads/s, 4 shards %.0f reads/s, "
              "ratio %.2f\n",
              single_qps, sharded_qps, sharded_qps / single_qps);
  EXPECT_GE(sharded_qps, 1.5 * single_qps);
}

}  // namespace
}  // namespace rpqres
