#include "schemes/ts_scheme.hpp"

#include <gtest/gtest.h>

#include "scheme_test_util.hpp"

namespace mci::schemes {
namespace {

using testutil::ClientHarness;

TEST(TsServerScheme, BuildsWindowReport) {
  db::UpdateHistory h(1000);
  h.record(1, 10.0);
  h.record(2, 150.0);
  const auto sizes = ClientHarness::makeSizes(1000);
  TsServerScheme server(h, sizes, /*L=*/20.0, /*w=*/5);
  const auto r = server.buildReport(200.0);
  ASSERT_EQ(r->kind, report::ReportKind::kTsWindow);
  const auto& ts = static_cast<const report::TsReport&>(*r);
  // Window = (200 - 5*20, 200] = (100, 200]: only item 2.
  ASSERT_EQ(ts.entries().size(), 1u);
  EXPECT_EQ(ts.entries()[0].item, 2u);
  EXPECT_DOUBLE_EQ(ts.coverageStart(), 100.0);
}

TEST(TsServerScheme, WindowClampsAtEpochEarlyOn) {
  db::UpdateHistory h(1000);
  h.record(1, 5.0);
  const auto sizes = ClientHarness::makeSizes(1000);
  TsServerScheme server(h, sizes, 20.0, 10);
  const auto r = server.buildReport(20.0);  // 20 - 200 < 0
  const auto& ts = static_cast<const report::TsReport&>(*r);
  EXPECT_DOUBLE_EQ(ts.coverageStart(), sim::kTimeEpoch);
  EXPECT_EQ(ts.entries().size(), 1u);
}

TEST(TsServerScheme, IgnoresCheckMessages) {
  db::UpdateHistory h(10);
  const auto sizes = ClientHarness::makeSizes(10);
  TsServerScheme server(h, sizes, 20.0, 10);
  EXPECT_FALSE(server.onCheckMessage({}, 100.0).has_value());
}

TEST(TsClientScheme, InvalidatesListedNewerEntries) {
  ClientHarness h;
  h.cacheItem(1, /*refTime=*/50.0);
  h.cacheItem(2, /*refTime=*/80.0);
  h.ctx.setLastHeard(80.0);

  db::UpdateHistory hist(1000);
  hist.record(1, 60.0);  // newer than entry 1's refTime -> stale
  hist.record(2, 70.0);  // older than entry 2's refTime -> entry is fresh
  const auto r = report::TsReport::build(hist, h.sizes, 100.0, 40.0);

  TsClientScheme client;
  const auto out = client.onReport(*r, h.ctx);
  EXPECT_FALSE(out.sendCheck);
  EXPECT_FALSE(h.ctx.cache().contains(1));
  EXPECT_TRUE(h.ctx.cache().contains(2));
  EXPECT_TRUE(h.sink.invalidated(1));
  EXPECT_DOUBLE_EQ(h.ctx.lastHeard(), 100.0);
}

TEST(TsClientScheme, DropsEntireCacheBeyondWindow) {
  ClientHarness h;
  h.cacheItem(1, 10.0);
  h.cacheItem(2, 10.0);
  h.ctx.setLastHeard(20.0);  // missed everything since t=20

  db::UpdateHistory hist(1000);
  const auto r = report::TsReport::build(hist, h.sizes, 500.0, /*wStart=*/300.0);

  TsClientScheme client;
  client.onReport(*r, h.ctx);
  EXPECT_EQ(h.ctx.cache().size(), 0u);
  EXPECT_EQ(h.sink.dropEvents, 1u);
  EXPECT_EQ(h.sink.droppedEntries, 2u);
}

TEST(TsClientScheme, ExactWindowBoundaryIsCovered) {
  ClientHarness h;
  h.cacheItem(1, 10.0);
  h.ctx.setLastHeard(300.0);

  db::UpdateHistory hist(1000);
  const auto r = report::TsReport::build(hist, h.sizes, 500.0, 300.0);
  TsClientScheme client;
  client.onReport(*r, h.ctx);
  EXPECT_TRUE(h.ctx.cache().contains(1));  // not dropped
}

TEST(TsClientScheme, FreshClientAtStartIsNotDropped) {
  // First ever report: coverage reaches the epoch, so a client with
  // lastHeard == 0 keeps its (empty) cache without a drop event.
  ClientHarness h;
  db::UpdateHistory hist(1000);
  const auto r = report::TsReport::build(hist, h.sizes, 20.0, sim::kTimeEpoch);
  TsClientScheme client;
  client.onReport(*r, h.ctx);
  EXPECT_EQ(h.sink.dropEvents, 0u);
}

TEST(ApplyTsEntries, SkipsAbsentItems) {
  ClientHarness h;
  h.cacheItem(1, 10.0);
  std::vector<db::UpdateRecord> entries{{99, 50.0}, {1, 5.0}};
  core::adaptive::applyTsEntries(h.ctx, entries);
  EXPECT_TRUE(h.ctx.cache().contains(1));  // record older than refTime
  EXPECT_TRUE(h.sink.invalidations.empty());
}

TEST(ApplyTsEntries, TieOnRefTimeIsKept) {
  // A record with time == refTime means the cached copy already reflects
  // that update (it was fetched at/after it).
  ClientHarness h;
  h.cacheItem(1, 50.0);
  std::vector<db::UpdateRecord> entries{{1, 50.0}};
  core::adaptive::applyTsEntries(h.ctx, entries);
  EXPECT_TRUE(h.ctx.cache().contains(1));
}

}  // namespace
}  // namespace mci::schemes
