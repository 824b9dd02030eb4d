// The swarm emulator end to end over real loopback sockets: a cluster of
// BroadcastServers plus a SwarmEmulator sharing one reactor. The emulated
// population's hit ratio is gated against a real 8-agent ClientPool over
// the identical configuration and seed (the vectorized model's fidelity
// claim), cache answers are audited against the authoritative databases
// (zero stale reads), and the TS in-place parser is pinned byte-for-byte
// against ReportCodec::decodeTs.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "db/update_history.hpp"
#include "live/client_agent.hpp"
#include "live/cluster.hpp"
#include "live/reactor.hpp"
#include "report/codec.hpp"
#include "report/ts_report.hpp"
#include "swarm/engine.hpp"

namespace mci::swarm {
namespace {

/// Hot/cold over a small database with the hot set cacheable: enough hits
/// for the hit-ratio comparisons to carry signal within a short test run.
core::SimConfig baseConfig(schemes::SchemeKind scheme) {
  core::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.dbSize = 500;
  cfg.clientBufferFrac = 0.1;
  cfg.workload = core::WorkloadKind::kHotCold;
  cfg.hotQuery = {0, 50, 0.8};
  cfg.meanThinkTime = 25.0;
  cfg.meanItemsPerQuery = 4.0;
  cfg.meanUpdateInterarrival = 50.0;
  cfg.broadcastPeriod = 10.0;
  cfg.simTime = 800.0;
  cfg.seed = 1234;
  return cfg;
}

struct SwarmRun {
  SwarmStats stats;
  MuxStats mux;
  bool ready = false;
};

SwarmRun runSwarm(const core::SimConfig& cfg, double timeScale,
                  std::uint32_t clients, std::uint32_t shards,
                  std::uint32_t endpoints, double zipfTheta = -1.0) {
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = clients;
  co.timeScale = timeScale;
  co.shardCount = shards;
  co.maxSendQueueBytes = std::size_t{64} << 20;
  live::Cluster cluster(reactor, co);

  SwarmOptions so;
  so.cfg = cfg;
  so.cfg.numClients = clients;
  so.port = cluster.seedPort();
  so.clients = clients;
  so.endpointsPerShard = endpoints;
  so.zipfTheta = zipfTheta;
  so.auditDbs = cluster.auditDbs();
  SwarmEmulator em(reactor, so);
  em.start();

  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (em.ready() && em.modelNow() >= cfg.simTime) {
      em.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);

  SwarmRun r;
  r.stats = em.stats();
  r.mux = em.mux().stats();
  r.ready = em.ready();
  EXPECT_EQ(cluster.staleReads(), 0u);
  return r;
}

double runPool(const core::SimConfig& cfg, double timeScale,
               std::size_t agents) {
  live::Reactor reactor;
  live::ClusterOptions co;
  co.cfg = cfg;
  co.cfg.numClients = agents;
  co.timeScale = timeScale;
  co.shardCount = 1;
  live::Cluster cluster(reactor, co);

  live::AgentOptions ao;
  ao.cfg = cfg;
  ao.cfg.numClients = agents;
  ao.port = cluster.seedPort();
  ao.numAgents = agents;
  ao.auditDbs = cluster.auditDbs();
  live::ClientPool pool(reactor, ao);
  pool.start();

  const live::Reactor::TimerHandle tick = reactor.addTimer(0.01, 0.01, [&] {
    if (pool.modelNow() >= cfg.simTime) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(tick);
  EXPECT_EQ(pool.staleReads(), 0u);
  EXPECT_EQ(cluster.staleReads(), 0u);
  return pool.finalize().hitRatio();
}

void expectSound(const SwarmRun& r) {
  EXPECT_TRUE(r.ready);
  EXPECT_EQ(r.mux.connectionsLost, 0u);
  EXPECT_GT(r.stats.reportsProcessed, 0u);
  EXPECT_GT(r.stats.queriesCompleted, 0u);
  EXPECT_EQ(r.stats.staleReads, 0u);
}

/// The headline fidelity check: an emulated population and a real agent
/// pool over the same scheme, workload and seed must land on comparable
/// hit ratios. The pool side is 8 agents (a few thousand reads), so the
/// tolerance is statistical, not exact; the committed bench gate runs the
/// same comparison at 10^5 clients with much tighter bounds.
void parityCase(schemes::SchemeKind scheme) {
  const core::SimConfig cfg = baseConfig(scheme);
  const SwarmRun sw = runSwarm(cfg, 400.0, 400, 1, 4);
  expectSound(sw);
  const double hitSwarm = sw.stats.hitRatio();
  const double hitPool = runPool(cfg, 400.0, 8);
  EXPECT_GT(hitSwarm, 0.1);
  EXPECT_GT(hitPool, 0.1);
  const double parity =
      std::min(hitSwarm, hitPool) / std::max(hitSwarm, hitPool);
  EXPECT_GT(parity, 0.6) << "swarm " << hitSwarm << " vs pool " << hitPool;
}

TEST(Swarm, AfwHitRatioMatchesClientPool) {
  parityCase(schemes::SchemeKind::kAfw);
}

TEST(Swarm, AawHitRatioMatchesClientPool) {
  parityCase(schemes::SchemeKind::kAaw);
}

// The model is driven purely by (seed, report ticks): multiplexing the
// uplink over 1 or 4 TCP endpoints must not move the aggregate statistics
// beyond report-timing jitter.
TEST(Swarm, EndpointCountDoesNotChangeTheModel) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  const SwarmRun one = runSwarm(cfg, 400.0, 400, 1, 1);
  const SwarmRun four = runSwarm(cfg, 400.0, 400, 1, 4);
  expectSound(one);
  expectSound(four);
  const double h1 = one.stats.hitRatio();
  const double h4 = four.stats.hitRatio();
  EXPECT_GT(h1, 0.1);
  EXPECT_NEAR(h1, h4, 0.08) << "1-endpoint vs 4-endpoint hit ratio";
}

TEST(Swarm, ShardedClusterRunsClean) {
  const core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  const SwarmRun r = runSwarm(cfg, 400.0, 300, 3, 2);
  expectSound(r);
  EXPECT_GT(r.stats.hitRatio(), 0.05);
}

TEST(Swarm, ZipfWorkloadRunsAndSkewsTowardLowRanks) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  cfg.workload = core::WorkloadKind::kUniform;  // replaced by Zipf
  const SwarmRun r = runSwarm(cfg, 400.0, 300, 1, 4, /*zipfTheta=*/0.9);
  expectSound(r);
  // theta = 0.9 concentrates most picks on a cacheable head: the hit
  // ratio must clear what UNIFORM over 500 items could ever deliver
  // (<= capacity/db = 0.1) by a wide margin.
  EXPECT_GT(r.stats.hitRatio(), 0.2);
}

// Rejecting non-adaptive servers must be loud, not a silent misrun.
TEST(Swarm, NonAdaptiveServerIsRejected) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kTs);
  cfg.simTime = 50.0;
  EXPECT_THROW(runSwarm(cfg, 400.0, 10, 1, 1), std::runtime_error);
}

// Pins the engine's in-place TS parse (parseTsBody, the very function
// SwarmEmulator::onReportPayload runs) against the allocating codec over
// the same bytes, for a regular and an extended report, and checks that
// truncated frames are refused.
TEST(Swarm, TsWireParseMatchesReportCodec) {
  core::SimConfig cfg = baseConfig(schemes::SchemeKind::kAaw);
  const report::SizeModel sizes = cfg.sizeModel();
  report::ReportCodec codec(sizes, 1e-3);
  const int tsBits = sizes.timestampBits;
  const int itemBits = sizes.itemIdBits();

  db::UpdateHistory hist(cfg.dbSize);
  hist.record(42, 60.5);
  hist.record(3, 101.25);
  hist.record(250, 107.5);
  hist.record(499, 119.875);
  const std::shared_ptr<const report::TsReport> reports[] = {
      report::TsReport::build(hist, sizes, 120.0, 100.0),
      report::TsReport::buildExtended(hist, sizes, 120.0, 50.0)};
  std::vector<TickRecord> records;
  for (const auto& ts : reports) {
    const std::vector<std::uint8_t> wire = codec.encode(*ts);
    report::BitReader r(wire.data(), wire.size());
    ASSERT_EQ(r.read(2), 0u);  // kind TS
    const std::optional<TsWireHeader> h =
        parseTsBody(r, tsBits, itemBits, records);
    ASSERT_TRUE(h.has_value());

    const std::shared_ptr<const report::TsReport> decoded =
        codec.decodeTs(wire);
    ASSERT_TRUE(decoded != nullptr);
    EXPECT_EQ(h->extended, decoded->extended());
    EXPECT_DOUBLE_EQ(codec.dequantize(h->now), decoded->broadcastTime);
    EXPECT_DOUBLE_EQ(codec.dequantize(h->coverage), decoded->coverageStart());
    ASSERT_EQ(records.size(), decoded->entries().size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].item, decoded->entries()[i].item);
      EXPECT_DOUBLE_EQ(codec.dequantize(records[i].time),
                       decoded->entries()[i].time);
    }

    // Any truncation is refused by the fits()/ok() bounds checks.
    for (std::size_t len = 1; len < wire.size(); ++len) {
      report::BitReader t(wire.data(), len);
      (void)t.read(2);
      EXPECT_FALSE(parseTsBody(t, tsBits, itemBits, records).has_value())
          << "accepted a " << len << "-byte prefix of " << wire.size();
    }
  }
}

}  // namespace
}  // namespace mci::swarm
