// mci_live_client: the live load generator. Runs N ClientAgents in one
// process against an mci_live_server, each a faithful copy of the
// simulator's client state machine (think / query / answer on next report /
// doze) driving real sockets. Scheme, database shape and time scale are
// learned from the server's Welcome.
//
//   ./mci_live_client --port 4242 --agents 8 --duration 2400
//
// Prints key=value stats on exit; --json dumps the full SimResult. Exits 0
// iff every agent was welcomed, no stale read was audited locally, and the
// connection survived to shutdown.

#include <cinttypes>
#include <cstdio>
#include <string>

#include "live/client_agent.hpp"
#include "metrics/json.hpp"
#include "runner/cli.hpp"
#include "schemes/factory.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);

  if (cli.has("list-schemes")) {
    // The scheme itself arrives in the server's Welcome; the listing is
    // here so both daemons answer the same question.
    std::printf("%s", schemes::schemeListing().c_str());
    return 0;
  }

  live::AgentOptions opts;
  opts.host = cli.getStr("host", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(cli.getInt("port", 0));
  opts.numAgents = static_cast<std::size_t>(cli.getInt("agents", 8));
  opts.sendAudit = !cli.has("no-audit");
  opts.cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  opts.cfg.meanThinkTime = cli.getDouble("think", opts.cfg.meanThinkTime);
  opts.cfg.disconnectProb = cli.getDouble("p", opts.cfg.disconnectProb);
  opts.cfg.meanDisconnectTime =
      cli.getDouble("disc", opts.cfg.meanDisconnectTime);
  if (cli.getStr("workload", "UNIFORM") == "HOTCOLD") {
    opts.cfg.workload = core::WorkloadKind::kHotCold;
  }
  const double duration = cli.getDouble("duration", 120.0);  // model seconds
  const bool asJson = cli.has("json");
  if (cli.rejectUnknownArgs("mci_live_client")) return 2;
  if (opts.port == 0) {
    std::fprintf(stderr, "usage: mci_live_client --port <tcp port> "
                         "[--agents N] [--duration model-seconds]\n");
    return 1;
  }

  live::Reactor reactor;
  live::ClientPool pool(reactor, opts);
  pool.start();

  // The pool's model clock starts at the first Welcome, so the deadline is
  // polled rather than scheduled: a cheap periodic tick that also bails out
  // if the server went away.
  const live::Reactor::TimerHandle poll = reactor.addTimer(0.05, 0.05, [&] {
    if (pool.modelNow() >= duration || pool.aliveCount() == 0) {
      pool.shutdown();
      reactor.stop();
    }
  });
  reactor.run();
  (void)reactor.cancelTimer(poll);

  const std::size_t agents = opts.numAgents;
  const metrics::SimResult r = pool.finalize();
  if (asJson) {
    std::printf("%s\n", metrics::toJson(r).c_str());
  } else {
    std::printf("agents=%zu welcomed=%zu queries=%" PRIu64 " hits=%" PRIu64
                " misses=%" PRIu64 " hit_ratio=%.4f reports_heard=%" PRIu64
                " checks=%" PRIu64 " stale=%" PRIu64 " lost=%" PRIu64 "\n",
                agents, pool.welcomedCount(), r.queriesCompleted, r.cacheHits,
                r.cacheMisses, r.hitRatio(), pool.stats().reportsHeard,
                r.checksSent, r.staleReads, pool.stats().connectionsLost);
    // Shard routing learned from the Welcome: one IR stream per shard,
    // counted separately so drivers can assert every shard was heard.
    const auto& perShard = pool.stats().reportsHeardPerShard;
    std::string counts;
    for (std::size_t s = 0; s < perShard.size(); ++s) {
      if (s > 0) counts += ',';
      counts += std::to_string(perShard[s]);
    }
    std::printf("shards=%zu reports_per_shard=%s epoch_switches=%" PRIu64
                " map_updates=%" PRIu64 "\n",
                perShard.size(), counts.c_str(), pool.stats().epochSwitches,
                pool.stats().mapUpdatesHeard);
  }
  const bool ok = pool.welcomedCount() == agents && r.staleReads == 0 &&
                  pool.stats().connectionsLost == 0;
  return ok ? 0 : 1;
}
