// Sharded broadcast cluster in one process: three BroadcastServers — each
// owning a third of the database, running its own adaptive scheme instance
// and its own L-period IR timer — plus two multi-link ClientAgents share a
// single reactor. An agent dials shard 0, learns the cluster map from the
// Welcome, connects to the other shards, and from then on routes every
// query item, checking record and audit to the shard that owns it. Each
// answer is audited against the owning shard's actual database, so a stale
// read anywhere in the cluster aborts the run. Time is scaled 300x.
//
//   ./examples/cluster_demo [--scheme AAW] [--shards 3] [--timescale 300]

#include <cinttypes>
#include <cstdio>

#include "live/client_agent.hpp"
#include "live/cluster.hpp"
#include "runner/cli.hpp"
#include "schemes/factory.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  if (cli.has("list-schemes")) {
    std::printf("%s", schemes::schemeListing().c_str());
    return 0;
  }

  live::ClusterOptions opts;
  if (auto kind = cli.getScheme("scheme", schemes::SchemeKind::kAaw)) {
    opts.cfg.scheme = *kind;
  } else {
    return 1;
  }
  const auto shards = cli.getIntBounded("shards", 3, 1, 16);
  if (!shards) return 1;
  opts.shardCount = static_cast<std::uint32_t>(*shards);
  opts.cfg.numClients = 2;
  opts.cfg.dbSize = 500;
  opts.cfg.clientBufferFrac = 0.1;
  opts.cfg.workload = core::WorkloadKind::kHotCold;
  opts.cfg.hotQuery = {0, 50, 0.9};
  opts.cfg.meanThinkTime = 25.0;
  opts.cfg.seed = 2026;
  opts.timeScale = cli.getDouble("timescale", 300.0);
  const double duration = cli.getDouble("duration", 2400.0);
  if (cli.rejectUnknownArgs("cluster_demo")) return 2;

  live::Reactor reactor;
  live::Cluster cluster(reactor, opts);
  std::printf("cluster_demo: %u-shard %s cluster (seed shard on "
              "127.0.0.1:%u), 2 agents, %.0f model seconds at %.0fx\n",
              cluster.shardCount(),
              schemes::schemeName(opts.cfg.scheme), cluster.seedPort(),
              duration, opts.timeScale);

  live::AgentOptions agentOpts;
  agentOpts.cfg = opts.cfg;  // same client-side workload knobs
  agentOpts.port = cluster.seedPort();
  agentOpts.numAgents = 2;
  agentOpts.auditDbs = cluster.auditDbs();  // audit each shard's partition
  live::ClientPool pool(reactor, agentOpts);
  pool.start();

  const live::Reactor::TimerHandle stop = reactor.addTimer(0.05, 0.05, [&] {
    if (pool.modelNow() >= duration) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(stop);

  const metrics::SimResult r = pool.finalize();
  const live::ServerStats t = cluster.totalStats();
  std::printf("reports broadcast %-4" PRIu64 " heard %-4" PRIu64
              " | updates applied %" PRIu64 " thinned %" PRIu64
              " | queries %-3" PRIu64 " hit ratio %.3f | misrouted %" PRIu64
              " | stale reads %" PRIu64 "\n",
              t.reportsBroadcast, pool.stats().reportsHeard, t.updatesApplied,
              t.updatesThinned, r.queriesCompleted, r.hitRatio(),
              t.misroutedItems, cluster.staleReads() + r.staleReads);
  for (std::uint32_t s = 0; s < cluster.shardCount(); ++s) {
    std::printf("  shard %u: %" PRIu64 " updates, %" PRIu64 " reports, %"
                PRIu64 " heard\n",
                s, cluster.server(s).stats().updatesApplied,
                cluster.server(s).stats().reportsBroadcast,
                pool.stats().reportsHeardPerShard[s]);
  }
  return r.staleReads == 0 && cluster.staleReads() == 0 &&
                 pool.welcomedCount() == 2
             ? 0
             : 1;
}
