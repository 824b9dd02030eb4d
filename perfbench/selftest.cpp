// Self-tests of the benchmark's measurement rules (bench_util.hpp).
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "live/clock.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50), 3);
  EXPECT_EQ(percentile(v, 100), 5);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({7, 9}), 7);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(99, 90), 9u);
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
  EXPECT_EQ(samplesBeyond(20, 50), 10u);
  EXPECT_EQ(samplesBeyond(0, 50), 0u);
}

TEST(Percentile, HighestWithTenBeyond) {
  EXPECT_FALSE(highestSupportedPercentile(19).has_value());
  EXPECT_EQ(highestSupportedPercentile(20), 50);
  EXPECT_EQ(highestSupportedPercentile(99), 50);
  EXPECT_EQ(highestSupportedPercentile(100), 90);
  EXPECT_EQ(highestSupportedPercentile(999), 90);
  EXPECT_EQ(highestSupportedPercentile(1000), 99);
  EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
}

TEST(IrLag, MatchesLiveClockGrid) {
  // At x60, 60 model ms pass per wall ms: a report stamped at tick 600
  // and applied when the clock reads 1200 is 10 wall ms late.
  EXPECT_DOUBLE_EQ(lagWallMs(1200, 600, 60), 10.0);
  EXPECT_DOUBLE_EQ(lagWallMs(600, 600, 60), 0.0);
  EXPECT_LT(lagWallMs(500, 600, 60), 0.0);
  // The grid is the LiveClock's: tick t is model second t / 1000.
  EXPECT_DOUBLE_EQ(mci::live::LiveClock::tickToTime(600), 0.6);
}

TEST(IrTracker, CountsOnlyWindowReports) {
  IrTracker ir(/*timeScale=*/60, /*periodSeconds=*/10);
  ir.onBroadcast(0, 10000);
  ir.onRound(1, 10000, 10120);  // before the window: not counted
  ir.openWindow();
  ir.onBroadcast(0, 20000);
  ir.onRound(0, 10000, 20060);  // not applied yet
  ir.onRound(1, 20000, 20300);  // applied 300 model ms = 5 wall ms late
  ir.closeWindow(20300);
  EXPECT_EQ(ir.due(), 1u);
  EXPECT_EQ(ir.missed(), 0u);
  ASSERT_EQ(ir.lagsMs().size(), 1u);
  EXPECT_DOUBLE_EQ(ir.lagsMs()[0], 5.0);
}

TEST(IrTracker, LateAndDroppedReportsAreMisses) {
  IrTracker ir(60, 10);
  ir.openWindow();
  ir.onBroadcast(0, 10000);
  ir.onRound(1, 10000, 20001);  // applied more than one period late
  ir.onBroadcast(0, 20002);
  ir.onBroadcast(0, 30002);
  // Only the newer one is applied: in-order delivery means the older was
  // dropped, so it is never applied.
  ir.onRound(1, 30002, 30060);
  ir.closeWindow(40003);
  EXPECT_EQ(ir.due(), 3u);
  EXPECT_EQ(ir.missed(), 2u);
  EXPECT_EQ(ir.lagsMs().size(), 2u);
}

TEST(IrTracker, LagCountsFromTheGridSlot) {
  IrTracker ir(60, 10);
  ir.openWindow();
  // 20600: the timer fired 600 model ms late (a busy reactor); the report
  // was due at its slot, 20000, all the same.
  for (const std::uint64_t t : {10000, 20600, 30000, 40000}) {
    ir.onBroadcast(0, t);
    ir.onRound(1, t, t == 20600 ? 20900 : t);
  }
  ir.closeWindow(40000);
  EXPECT_EQ(ir.due(), 4u);
  EXPECT_EQ(ir.missed(), 0u);
  ASSERT_EQ(ir.lagsMs().size(), 4u);
  EXPECT_DOUBLE_EQ(ir.lagsMs()[1], 15.0);
}

TEST(IrTracker, SkippedSlotsAreMisses) {
  IrTracker ir(60, 10);
  ir.openWindow();
  ir.onBroadcast(0, 10000);
  ir.onRound(1, 10000, 10050);
  ir.onBroadcast(0, 40000);  // slots 20000 and 30000 never went out
  ir.onRound(1, 40000, 40050);
  ir.closeWindow(40050);
  EXPECT_EQ(ir.due(), 4u);
  EXPECT_EQ(ir.missed(), 2u);
}

TEST(IrTracker, LateBroadcastKeepsItsSlot) {
  IrTracker ir(60, 10);
  ir.openWindow();
  // 27000 is 0.7 L late and still slot 20000; the grid's phase comes from
  // the on-time majority.
  std::vector<std::uint64_t> stamps{10000, 27000};
  for (std::uint64_t t = 30000; t <= 130000; t += 10000) stamps.push_back(t);
  for (const std::uint64_t t : stamps) {
    ir.onBroadcast(0, t);
    ir.onRound(1, t, t + 50);
  }
  ir.closeWindow(130050);
  EXPECT_EQ(ir.due(), stamps.size());
  EXPECT_EQ(ir.missed(), 0u);
  EXPECT_DOUBLE_EQ(ir.lagsMs()[1], 7050.0 / 60);
}

TEST(IrTracker, GridNearThePeriodBoundary) {
  IrTracker ir(60, 10);
  ir.openWindow();
  for (const std::uint64_t t : {9990, 20005, 29990}) {
    ir.onBroadcast(0, t);  // 20005 is slot 19990, 15 ticks late
    ir.onRound(1, t, t + 60);
  }
  ir.closeWindow(30050);
  EXPECT_EQ(ir.due(), 3u);
  EXPECT_EQ(ir.missed(), 0u);
  ASSERT_EQ(ir.lagsMs().size(), 3u);
  EXPECT_DOUBLE_EQ(ir.lagsMs()[1], 75.0 / 60);
}

TEST(IrTracker, ShardsInterleave) {
  IrTracker ir(60, 10);
  ir.openWindow();
  ir.onBroadcast(0, 10000);
  ir.onBroadcast(1, 10120);
  // Shard 1's report is applied first; shard 0's stays pending and is
  // taken by the next applied count.
  ir.onRound(1, 10120, 10200);
  ir.onRound(1, 10120, 10300);
  ir.closeWindow(10300);
  EXPECT_EQ(ir.due(), 2u);
  EXPECT_EQ(ir.missed(), 0u);
  EXPECT_EQ(ir.lagsMs().size(), 2u);
}

TEST(IrTracker, PendingAtCloseLeavesDenominator) {
  IrTracker ir(60, 10);
  ir.openWindow();
  ir.onBroadcast(0, 10000);
  ir.onRound(0, 0, 10010);
  ir.closeWindow(10010);
  EXPECT_EQ(ir.due(), 0u);
  EXPECT_EQ(ir.missed(), 0u);
}

TEST(Golden, ByteForByte) {
  EXPECT_EQ(compareGolden("a,b\n1,2\n", "a,b\n1,2\n"), "");
  EXPECT_NE(compareGolden("a,b\n1,2\n", "a,b\n1,3\n").find("line 2"),
            std::string::npos);
  EXPECT_FALSE(compareGolden("a,b\n1,2", "a,b\n1,2\n").empty());
  EXPECT_FALSE(compareGolden("a,b\r\n", "a,b\n").empty());
}

TEST(Golden, MissingFile) {
  EXPECT_FALSE(readFile("no/such/golden.csv").has_value());
}

}  // namespace
}  // namespace perfbench
