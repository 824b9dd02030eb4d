// Exact differential replay of the shared adaptive client rules
// (core/adaptive_client.hpp) over both partition implementations: the
// scalar schemes::ClientContext the simulator and live agents use, and the
// struct-of-arrays swarm::SwarmPartition view of a SwarmState. One seeded
// event trace on the millisecond grid — TS windows, AAW extended windows,
// BS helping reports built from real per-shard UpdateHistory objects,
// dozes spanning the window, Tlb checks whose uplink sometimes fails,
// check acks before and after the next report, and fetched copies that
// sometimes arrive late — drives both, and after every event the two must
// agree client by client, partition by partition: cached item sets,
// versions, refTimes, suspect flags, lastHeard, suspectAsOf,
// checkDeliveredAt, checkSent, salvagePending and every check intent.
// No sockets, no reactor.
//
// The scalar side runs the real simulator entry points
// (AdaptiveClientScheme::onReport, ClientScheme::onWake/onCheckDelivered)
// whenever the uplink is up; the swarm side runs exactly what
// SwarmEmulator does, including the wire round trip through parseTsBody and
// ReportCodec::decodeBs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/adaptive_client.hpp"
#include "core/adaptive_common.hpp"
#include "core/config.hpp"
#include "db/update_history.hpp"
#include "live/clock.hpp"
#include "report/bs_report.hpp"
#include "report/codec.hpp"
#include "report/ts_report.hpp"
#include "schemes/scheme_test_util.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "swarm/engine.hpp"
#include "swarm/state.hpp"

namespace mci::core {
namespace {

using schemes::ClientContext;
using swarm::SwarmPartition;
using swarm::Tick;

constexpr std::uint32_t kClients = 6;
constexpr std::uint32_t kDbSize = 48;
constexpr Tick kPeriod = 10000;  // L = 10 s
constexpr int kWindow = 4;       // w: IR(w) covers 40 s
constexpr int kSteps = 160;      // broadcast intervals per replay

sim::SimTime at(Tick t) { return live::LiveClock::tickToTime(t); }

// (item, version, refTime, suspect) of one cached copy, refTime in ticks.
using CachedCopy = std::tuple<db::ItemId, db::Version, Tick, bool>;

struct Replay {
  Replay(schemes::SchemeKind scheme, std::uint32_t shards, std::uint64_t seed)
      : scheme_(scheme), shards_(shards), rng_(seed) {
    SimConfig cfg;
    cfg.dbSize = kDbSize;
    sizes_ = cfg.sizeModel();
    codec_ = std::make_unique<report::ReportCodec>(sizes_);
    for (std::uint32_t s = 0; s < shards_; ++s) hist_.emplace_back(kDbSize);
    versions_.assign(kDbSize, 0);
    // Each partition can hold every item of the database, so neither LRU
    // nor CLOCK ever evicts: the two caches differ only in victim choice,
    // which this replay must not exercise.
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (std::uint32_t s = 0; s < shards_; ++s) {
        scalar_.push_back(std::make_unique<ClientContext>(
            c, kDbSize, sizes_, sim_, &sink_));
      }
    }
    soa_.configure(kClients, shards_, kDbSize, kDbSize * shards_, seed);
    awake_.assign(kClients, true);
    wakeAt_.assign(kClients, 0);
  }

  std::uint32_t ownerOf(db::ItemId item) const { return item % shards_; }
  ClientContext& ctx(std::uint32_t c, std::uint32_t s) {
    return *scalar_[c * shards_ + s];
  }
  SwarmPartition part(std::uint32_t c, std::uint32_t s) {
    return SwarmPartition(soa_, c, s);
  }
  bool chance(double p) { return rng_.bernoulli(p); }
  Tick pick(Tick lo, Tick hi) {
    return static_cast<Tick>(rng_.uniformInt(lo, hi));
  }

  void expectSame(const char* event) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      for (std::uint32_t s = 0; s < shards_; ++s) {
        SCOPED_TRACE(testing::Message() << "after " << event << " at tick "
                                        << now_ << ", client " << c
                                        << " shard " << s);
        ClientContext& a = ctx(c, s);
        SwarmPartition b = part(c, s);
        ASSERT_EQ(a.lastHeard(), at(b.lastHeard()));
        ASSERT_EQ(a.suspectAsOf(), at(b.suspectAsOf()));
        ASSERT_EQ(a.suspectCount(), b.suspectCount());
        ASSERT_EQ(a.checkSent(), b.checkSent());
        ASSERT_EQ(a.salvagePending(), b.salvagePending());
        const Tick acked = b.checkDeliveredAt();
        ASSERT_EQ(a.checkDeliveredAt(),
                  acked == swarm::kNeverTick ? sim::kTimeInfinity : at(acked));
        ASSERT_EQ(scalarCopies(c, s), soaCopies(c, s));
      }
    }
  }

  std::vector<CachedCopy> scalarCopies(std::uint32_t c, std::uint32_t s) {
    std::vector<CachedCopy> out;
    ctx(c, s).cache().forEach([&](const cache::Entry& e) {
      const auto ref = static_cast<Tick>(std::llround(e.refTime * 1e3));
      EXPECT_EQ(at(ref), e.refTime) << "refTime off the ms grid";
      out.emplace_back(e.item, e.version, ref, e.suspect);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<CachedCopy> soaCopies(std::uint32_t c, std::uint32_t s) {
    std::vector<CachedCopy> out;
    for (std::uint32_t slot = soa_.shardSlotOff[s];
         slot < soa_.shardSlotOff[s + 1]; ++slot) {
      const std::size_t i = soa_.slotIndex(c, slot);
      if (soa_.slotItem[i] == swarm::SwarmState::kEmptySlot) continue;
      out.emplace_back(soa_.slotItem[i], soa_.slotVersion[i], soa_.slotRef[i],
                       soa_.slotSuspect.get(i));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void update(Tick t) {
    const auto item = static_cast<db::ItemId>(pick(0, kDbSize - 1));
    hist_[ownerOf(item)].record(item, at(t));
    ++versions_[item];
  }

  // A fetched copy read at readTime (sometimes before the partition's
  // lastHeard: the late-copy rule must drop it on both sides).
  void fetch(Tick t) {
    const auto c = static_cast<std::uint32_t>(pick(0, kClients - 1));
    if (!awake_[c]) return;
    const auto item = static_cast<db::ItemId>(pick(0, kDbSize - 1));
    const std::uint32_t s = ownerOf(item);
    const Tick read = t > 2 * kPeriod ? pick(t - 2 * kPeriod, t) : pick(0, t);
    const db::Version v = versions_[item];
    SwarmPartition p = part(c, s);
    const bool a =
        adaptive::acceptFetchedCopy(ctx(c, s), item, v, at(read), at(read));
    const bool b = adaptive::acceptFetchedCopy(p, item, v, read, read);
    ASSERT_EQ(a, b);
    if (!a) ++lateCopies_;
  }

  void doze(Tick t) {
    const auto c = static_cast<std::uint32_t>(pick(0, kClients - 1));
    if (!awake_[c]) return;
    awake_[c] = false;
    // Half a window to three windows: some gaps stay covered, most not.
    wakeAt_[c] = t + pick(kWindow * kPeriod / 2, 3 * kWindow * kPeriod);
  }

  void wakeDue(Tick t) {
    for (std::uint32_t c = 0; c < kClients; ++c) {
      if (awake_[c] || wakeAt_[c] > t) continue;
      awake_[c] = true;
      for (std::uint32_t s = 0; s < shards_; ++s) {
        if (ctx(c, s).suspectCount() > 0) ++suspectWakes_;
        client_.onWake(ctx(c, s), at(t));
        SwarmPartition p = part(c, s);
        adaptive::onWake(p);
      }
    }
  }

  // The ack of an in-flight check, stamped strictly before the next
  // report, exactly at it, or after it.
  void ack(Tick t, Tick nextReport) {
    const auto c = static_cast<std::uint32_t>(pick(0, kClients - 1));
    const auto s = static_cast<std::uint32_t>(pick(0, shards_ - 1));
    if (!awake_[c] || !ctx(c, s).checkSent() ||
        ctx(c, s).checkDeliveredAt() != sim::kTimeInfinity) {
      return;
    }
    const Tick asOf = chance(0.6)   ? t
                      : chance(0.5) ? nextReport
                                    : nextReport + kPeriod / 2;
    client_.onCheckDelivered(ctx(c, s), at(asOf));
    part(c, s).setCheckDeliveredAt(asOf);
  }

  void broadcast(std::uint32_t s, Tick t) {
    const db::UpdateHistory& h = hist_[s];
    const Tick wStart = t > kWindow * kPeriod ? t - kWindow * kPeriod : 0;
    const double roll = rng_.uniform01();
    report::ReportPtr r;
    if (roll < 0.2) {
      r = report::BsReport::build(h, sizes_, at(t));
    } else if (roll < 0.45 && scheme_ == schemes::SchemeKind::kAaw) {
      // AAW's IR(w'): the dummy record reaches back to some Tlb.
      r = report::TsReport::buildExtended(h, sizes_, at(t),
                                          at(pick(0, wStart)));
    } else {
      r = report::TsReport::build(h, sizes_, at(t), at(wStart));
    }

    if (r->kind == report::ReportKind::kBitSeq) {
      const auto& bs = static_cast<const report::BsReport&>(*r);
      const auto decoded = codec_->decodeBs(codec_->encode(bs));
      ASSERT_TRUE(decoded.has_value());
      const auto wireBs = report::BsReport::fromWire(decoded->wire, sizes_,
                                                     decoded->broadcastTime);
      const auto tick =
          static_cast<Tick>(codec_->quantize(decoded->broadcastTime));
      ASSERT_EQ(tick, t);
      for (std::uint32_t c = 0; c < kClients; ++c) {
        if (!awake_[c]) continue;
        EXPECT_FALSE(client_.onReport(*r, ctx(c, s)).sendCheck);
        SwarmPartition p = part(c, s);
        adaptive::onBsReport(p, tick, *wireBs);
      }
      return;
    }

    const auto& ts = static_cast<const report::TsReport&>(*r);
    const std::vector<std::uint8_t> wire = codec_->encode(ts);
    report::BitReader reader(wire.data(), wire.size());
    ASSERT_EQ(reader.read(2), 0u);
    const auto head =
        swarm::parseTsBody(reader, sizes_.timestampBits, sizes_.itemIdBits(),
                           records_);
    ASSERT_TRUE(head.has_value());
    ASSERT_EQ(head->now, t);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      if (!awake_[c]) continue;
      // The uplink is sometimes down (the swarm's not-yet-welcomed joiner
      // endpoint): the intent stands but nothing is committed, so the next
      // uncovered report asks again.
      const bool uplinkUp = chance(0.8);
      ClientContext& a = ctx(c, s);
      if (a.suspectCount() > 0 && a.checkSent() &&
          a.checkDeliveredAt() < r->broadcastTime &&
          a.suspectAsOf() < ts.coverageStart()) {
        ++declines_;
      }
      std::optional<sim::SimTime> intentA;
      if (uplinkUp) {
        const schemes::ClientOutcome out = client_.onReport(*r, a);
        if (out.sendCheck) intentA = out.check.tlb;
      } else {
        intentA = adaptive::onTsReport(a, r->broadcastTime,
                                       ts.coverageStart(), ts.entries());
      }
      SwarmPartition b = part(c, s);
      const std::optional<Tick> intentB =
          adaptive::onTsReport(b, head->now, head->coverage, records_);
      ASSERT_EQ(intentA.has_value(), intentB.has_value())
          << "client " << c << " shard " << s;
      if (!intentB) continue;
      ASSERT_EQ(*intentA, at(*intentB));
      ++checks_;
      if (uplinkUp) {
        adaptive::commitCheck(b);
      } else {
        ++uncommitted_;
      }
    }
  }

  void run() {
    for (int step = 1; step <= kSteps; ++step) {
      const Tick report = static_cast<Tick>(step) * kPeriod;
      // Client and server events inside the interval, in time order.
      std::vector<Tick> times;
      for (int k = 0; k < 12; ++k) {
        times.push_back(pick(report - kPeriod + 1, report - 1));
      }
      std::sort(times.begin(), times.end());
      for (const Tick t : times) {
        now_ = t;
        wakeDue(t);
        expectSame("wake");
        const double roll = rng_.uniform01();
        if (roll < 0.3) {
          update(t);
        } else if (roll < 0.7) {
          fetch(t);
          expectSame("fetch");
        } else if (roll < 0.8) {
          doze(t);
        } else {
          ack(t, report);
          expectSame("ack");
        }
        if (testing::Test::HasFatalFailure()) return;
      }
      now_ = report;
      wakeDue(report);
      expectSame("wake");
      for (std::uint32_t s = 0; s < shards_; ++s) {
        broadcast(s, report);
        expectSame("report");
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }

  schemes::SchemeKind scheme_;
  std::uint32_t shards_;
  sim::Rng rng_;
  report::SizeModel sizes_;
  std::unique_ptr<report::ReportCodec> codec_;
  std::vector<db::UpdateHistory> hist_;
  std::vector<db::Version> versions_;
  sim::Simulator sim_;
  schemes::testutil::RecordingSink sink_;
  AdaptiveClientScheme client_;
  std::vector<std::unique_ptr<ClientContext>> scalar_;
  swarm::SwarmState soa_;
  std::vector<swarm::TickRecord> records_;
  std::vector<bool> awake_;
  std::vector<Tick> wakeAt_;
  Tick now_ = 0;

  // Coverage of the trace: each rule branch must actually have run.
  std::uint64_t checks_ = 0;
  std::uint64_t uncommitted_ = 0;
  std::uint64_t lateCopies_ = 0;
  std::uint64_t suspectWakes_ = 0;
  std::uint64_t declines_ = 0;
};

void replay(schemes::SchemeKind scheme, std::uint32_t shards) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Replay r(scheme, shards, seed);
    r.run();
    if (testing::Test::HasFatalFailure()) return;
    EXPECT_GT(r.checks_, 0u);
    EXPECT_GT(r.uncommitted_, 0u);
    EXPECT_GT(r.lateCopies_, 0u);
    EXPECT_GT(r.suspectWakes_, 0u);
    EXPECT_GT(r.declines_, 0u);
    EXPECT_GT(r.sink_.salvagedEntries, 0u);
    EXPECT_GT(r.sink_.dropEvents, 0u);
    EXPECT_FALSE(r.sink_.invalidations.empty());
  }
}

TEST(AdaptiveReplay, AfwOneShardScalarAndSoaAgreeExactly) {
  replay(schemes::SchemeKind::kAfw, 1);
}

TEST(AdaptiveReplay, AfwTwoShardsScalarAndSoaAgreeExactly) {
  replay(schemes::SchemeKind::kAfw, 2);
}

TEST(AdaptiveReplay, AawOneShardScalarAndSoaAgreeExactly) {
  replay(schemes::SchemeKind::kAaw, 1);
}

TEST(AdaptiveReplay, AawTwoShardsScalarAndSoaAgreeExactly) {
  replay(schemes::SchemeKind::kAaw, 2);
}

// --- the pre-flip anchor of a reshard ---------------------------------

// Partition 0 heard a report at 50 s but sits in an open gap whose
// suspects date from 20 s; partition 1 heard at 40 s. Migrated copies must
// be anchored at 20 s (the lowest consistency point), not at the minimum
// lastHeard of 40 s, and then run an ordinary gap cycle.
template <class Time, class MakePart>
void expectAnchorFoldsInOpenGap(Time t20, Time t40, Time t50,
                                MakePart&& partition) {
  auto&& p0 = partition(0);
  auto&& p1 = partition(1);
  p0.insert(1, 1, t20);
  p0.setLastHeard(t20);
  p0.markAllSuspect(t20);
  p0.setLastHeard(t50);  // heard uncovered reports while the gap is open
  p1.setLastHeard(t40);
  ASSERT_GT(p0.suspectCount(), 0u);

  const Time anchor = adaptive::preFlipAnchor<Time>([&](auto&& visit) {
    visit(p0);
    visit(p1);
  });
  EXPECT_EQ(anchor, t20);
  // Without an open gap the anchor is the minimum lastHeard; with no
  // partition at all it is the epoch.
  EXPECT_EQ(adaptive::preFlipAnchor<Time>([&](auto&& visit) { visit(p1); }),
            t40);
  EXPECT_EQ(adaptive::preFlipAnchor<Time>([](auto&&) {}), Time{0});

  // Partition 1 receives a migrated copy.
  p1.insert(2, 3, t40);
  adaptive::adoptAtAnchor(p1, anchor);
  EXPECT_EQ(p1.suspectAsOf(), t20);
  EXPECT_EQ(p1.suspectCount(), 1u);
  EXPECT_TRUE(p1.salvagePending());
  EXPECT_FALSE(p1.checkSent());
}

TEST(PreFlipAnchor, FoldsInOpenGapSuspectAsOfScalar) {
  schemes::testutil::ClientHarness h0(64, 8);
  schemes::testutil::ClientHarness h1(64, 8);
  ClientContext* parts[] = {&h0.ctx, &h1.ctx};
  expectAnchorFoldsInOpenGap<sim::SimTime>(
      20.0, 40.0, 50.0,
      [&](std::uint32_t s) -> ClientContext& { return *parts[s]; });
}

TEST(PreFlipAnchor, FoldsInOpenGapSuspectAsOfSoa) {
  swarm::SwarmState st;
  st.configure(1, 2, 64, 16, 1);
  expectAnchorFoldsInOpenGap<Tick>(
      20000, 40000, 50000,
      [&](std::uint32_t s) { return SwarmPartition(st, 0, s); });
}

}  // namespace
}  // namespace mci::core
