// mci_live_cluster: the sharded broadcast launcher. Spawns K
// BroadcastServers on one reactor, wires them into one cluster (shared
// update seed, hash shard map installed in every Welcome), and serves
// clients that route by shard. Pair with mci_live_client pointed at any
// one shard — the seed Welcome teaches it the rest.
//
//   ./mci_live_cluster --shards 3 --scheme AAW --clients 8
//       --timescale 100 --duration 2400
//
// Prints `port=<seed shard port>` then `ports=p0,p1,...` on stdout once
// listening (drivers parse them). Exits 0 iff no shard audited a stale
// read.
//
// Elastic membership (live resharding), two control surfaces:
//   signals   SIGUSR1 = grow one shard, SIGUSR2 = shrink one shard,
//             SIGHUP = rebalance (same members, reseeded partition)
//   --reshard "grow2@30,rebalance@60,shrink2@90"
//             scripted transitions at model-second marks
// Each completed transition prints `epoch=<version> shards=<count>` —
// drivers (tools/live_load.py --reshard) parse these lines.

#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "live/cluster.hpp"
#include "runner/cli.hpp"
#include "schemes/factory.hpp"

namespace {

struct ReshardStep {
  enum class Kind { kGrow, kShrink, kRebalance } kind;
  std::uint32_t count = 0;   // shards added/removed (grow/shrink)
  double atModelSeconds = 0; // when the transition starts
};

// Parses "grow2@30,rebalance@60,shrink2@90". Counts default to 1.
bool parseReshardScript(const std::string& spec,
                        std::vector<ReshardStep>& out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    const std::size_t at = tok.find('@');
    if (at == std::string::npos || at + 1 >= tok.size()) return false;
    std::string verb = tok.substr(0, at);
    ReshardStep step;
    step.atModelSeconds = std::atof(tok.c_str() + at + 1);
    if (step.atModelSeconds <= 0) return false;
    std::uint32_t count = 1;
    while (!verb.empty() && verb.back() >= '0' && verb.back() <= '9') {
      // trailing digits are the shard count ("grow2")
      count = 0;
      std::size_t d = verb.size();
      while (d > 0 && verb[d - 1] >= '0' && verb[d - 1] <= '9') --d;
      count = static_cast<std::uint32_t>(std::atoi(verb.c_str() + d));
      verb = verb.substr(0, d);
      break;
    }
    if (verb == "grow") {
      step.kind = ReshardStep::Kind::kGrow;
    } else if (verb == "shrink") {
      step.kind = ReshardStep::Kind::kShrink;
    } else if (verb == "rebalance") {
      step.kind = ReshardStep::Kind::kRebalance;
    } else {
      return false;
    }
    step.count = count == 0 ? 1 : count;
    out.push_back(step);
    pos = comma + 1;
  }
  return !out.empty();
}

void runStep(mci::live::Cluster& cluster, const ReshardStep& step) {
  if (cluster.reshardInProgress()) {
    std::printf("reshard=busy\n");
    std::fflush(stdout);
    return;
  }
  const auto announce = [&cluster] {
    std::printf("epoch=%u shards=%u\n", cluster.epoch(),
                cluster.shardCount());
    std::fflush(stdout);
  };
  switch (step.kind) {
    case ReshardStep::Kind::kGrow:
      cluster.grow(step.count, announce);
      break;
    case ReshardStep::Kind::kShrink:
      if (step.count >= cluster.shardCount()) {
        std::printf("reshard=refused\n");  // must leave at least one shard
        std::fflush(stdout);
        return;
      }
      cluster.shrink(step.count, announce);
      break;
    case ReshardStep::Kind::kRebalance:
      cluster.rebalance(announce);
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);

  if (cli.has("list-schemes")) {
    std::printf("%s", schemes::schemeListing().c_str());
    return 0;
  }

  live::ClusterOptions opts;
  if (auto kind = cli.getScheme("scheme", core::SimConfig{}.scheme)) {
    opts.cfg.scheme = *kind;
  } else {
    return 1;  // getScheme printed the valid set
  }
  const auto shards = cli.getIntBounded("shards", 1, 1, live::ShardMap::kMaxShards);
  if (!shards) return 1;  // getIntBounded printed the accepted range
  opts.shardCount = static_cast<std::uint32_t>(*shards);
  opts.cfg.numClients = static_cast<std::size_t>(cli.getInt("clients", 8));
  opts.cfg.dbSize = static_cast<std::size_t>(cli.getInt("dbsize", 1000));
  opts.cfg.broadcastPeriod = cli.getDouble("period", 20.0);
  opts.cfg.meanUpdateInterarrival = cli.getDouble("update-gap", 100.0);
  opts.cfg.meanItemsPerUpdate = cli.getDouble("update-items", 5.0);
  opts.cfg.windowIntervals = static_cast<int>(cli.getInt("window", 10));
  opts.cfg.clientBufferFrac =
      cli.getDouble("bufferfrac", opts.cfg.clientBufferFrac);
  opts.cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  opts.timeScale = cli.getDouble("timescale", 1.0);
  if (cli.has("ports")) {
    auto ports = live::parsePortList(cli.getStr("ports", ""));
    if (!ports || ports->size() != opts.shardCount) {
      std::fprintf(stderr,
                   "bad --ports value: expected %u comma-separated ports\n",
                   opts.shardCount);
      return 1;
    }
    opts.tcpPorts = std::move(*ports);
  }
  if (cli.has("multicast")) {
    auto spec = live::parseMulticastSpec(cli.getStr("multicast", ""));
    if (!spec) {
      std::fprintf(stderr,
                   "bad --multicast value '%s': expected <224-239.x.y.z>:"
                   "<base port> (shard s broadcasts on base port + s)\n",
                   cli.getStr("multicast", "").c_str());
      return 1;
    }
    opts.multicastGroup = spec->first;
    opts.multicastBasePort = spec->second;
  }
  const double duration = cli.getDouble("duration", 0.0);  // model s; 0 = run
  std::vector<ReshardStep> script;
  if (cli.has("reshard")) {
    if (!parseReshardScript(cli.getStr("reshard", ""), script)) {
      std::fprintf(stderr,
                   "bad --reshard value '%s': expected e.g. "
                   "\"grow2@30,rebalance@60,shrink2@90\" (model seconds)\n",
                   cli.getStr("reshard", "").c_str());
      return 1;
    }
  }
  if (cli.rejectUnknownArgs("mci_live_cluster")) return 2;

  live::Reactor reactor;
  live::Cluster cluster(reactor, opts);
  std::printf("port=%u\n", cluster.seedPort());
  std::string portList;
  for (std::uint32_t s = 0; s < cluster.shardCount(); ++s) {
    if (s > 0) portList += ',';
    portList += std::to_string(cluster.server(s).tcpPort());
  }
  std::printf("ports=%s\n", portList.c_str());
  std::fflush(stdout);

  // Signals through the reactor: INT/TERM stop cleanly; USR1/USR2/HUP are
  // the live membership controls (grow / shrink / rebalance).
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGUSR1);
  sigaddset(&mask, SIGUSR2);
  sigaddset(&mask, SIGHUP);
  sigprocmask(SIG_BLOCK, &mask, nullptr);
  const int sigFd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  const live::Reactor::FdHandle sigReg = reactor.addFd(
      sigFd, EPOLLIN, [&reactor, &cluster, sigFd](std::uint32_t) {
    signalfd_siginfo si;
    while (::read(sigFd, &si, sizeof si) == static_cast<ssize_t>(sizeof si)) {
      switch (si.ssi_signo) {
        case SIGUSR1:
          runStep(cluster, {ReshardStep::Kind::kGrow, 1, 1.0});
          break;
        case SIGUSR2:
          runStep(cluster, {ReshardStep::Kind::kShrink, 1, 1.0});
          break;
        case SIGHUP:
          runStep(cluster, {ReshardStep::Kind::kRebalance, 0, 1.0});
          break;
        default:
          reactor.stop();
          return;
      }
    }
  });

  std::vector<live::Reactor::TimerHandle> stepTimers;
  stepTimers.reserve(script.size());
  for (const ReshardStep& step : script) {
    stepTimers.push_back(reactor.addTimer(
        cluster.server(0).clock().wallDelay(step.atModelSeconds), 0,
        [&cluster, step] { runStep(cluster, step); }));
  }

  live::Reactor::TimerHandle stopTimer;
  if (duration > 0) {
    stopTimer = reactor.addTimer(cluster.server(0).clock().wallDelay(duration),
                                 0, [&reactor] { reactor.stop(); });
  }
  reactor.run();
  reactor.removeFd(sigReg);
  for (const live::Reactor::TimerHandle& t : stepTimers) {
    (void)reactor.cancelTimer(t);  // unfired steps die with the run
  }
  (void)reactor.cancelTimer(stopTimer);

  const live::ServerStats t = cluster.totalStats();
  std::printf("shards=%u reports=%" PRIu64 " updates=%" PRIu64
              " thinned=%" PRIu64 " queries=%" PRIu64 " checks=%" PRIu64
              " audits=%" PRIu64 " accepted=%" PRIu64 " dropped=%" PRIu64
              " bad=%" PRIu64 " misrouted=%" PRIu64 " stale=%" PRIu64
              " frozen=%" PRIu64 " handoff_sent=%" PRIu64
              " handoff_recv=%" PRIu64 " handoff_failed=%" PRIu64
              " grace_served=%" PRIu64 " map_updates=%" PRIu64
              " reannounces=%" PRIu64 " epoch=%u\n",
              cluster.shardCount(), t.reportsBroadcast, t.updatesApplied,
              t.updatesThinned, t.queryRequests, t.checksReceived,
              t.auditsReceived, t.connectionsAccepted, t.framesDropped,
              t.badFrames, t.misroutedItems, cluster.staleReads(),
              t.updatesFrozen, t.handoffItemsSent, t.handoffItemsReceived,
              t.handoffFailures, t.graceServed, t.mapUpdatesSent,
              t.mapReannounces, cluster.epoch());
  for (std::uint32_t s = 0; s < cluster.shardCount(); ++s) {
    const live::ServerStats& ss = cluster.server(s).stats();
    std::printf("shard%u_reports=%" PRIu64 " shard%u_updates=%" PRIu64 "\n",
                s, ss.reportsBroadcast, s, ss.updatesApplied);
  }
  return cluster.staleReads() == 0 ? 0 : 1;
}
