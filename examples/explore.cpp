// Example: the kitchen-sink run inspector. Configure any single simulation
// from the command line, run it, and get the full result dump: paper
// metrics, cache behaviour, channel decomposition, client radio energy, the
// closed-form prediction from core/analysis next to the measurement, and —
// with --trace N — the tail of the model-event trace.
//
//   ./explore --scheme AAW --workload HOTCOLD --dbsize 20000 --p 0.3
//             --disc 2000 --uplink 500 --trace 20

#include <cstdio>

#include "core/analysis.hpp"
#include "core/simulation.hpp"
#include "metrics/json.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);

  if (cli.has("list-schemes")) {
    std::printf("%s", schemes::schemeListing().c_str());
    return 0;
  }

  core::SimConfig cfg;
  if (auto kind = cli.getScheme("scheme", core::SimConfig{}.scheme)) {
    cfg.scheme = *kind;
  } else {
    return 1;  // getScheme printed the valid set
  }
  if (cli.getStr("workload", "UNIFORM") == "HOTCOLD") {
    cfg.workload = core::WorkloadKind::kHotCold;
  }
  cfg.simTime = cli.getDouble("simtime", 100000.0);
  cfg.dbSize = static_cast<std::size_t>(cli.getInt("dbsize", 10000));
  cfg.numClients = static_cast<std::size_t>(cli.getInt("clients", 100));
  cfg.disconnectProb = cli.getDouble("p", 0.1);
  cfg.meanDisconnectTime = cli.getDouble("disc", 400.0);
  cfg.uplinkBps = cli.getDouble("uplink", cfg.downlinkBps);
  cfg.clientBufferFrac = cli.getDouble("buffer", 0.02);
  cfg.windowIntervals = static_cast<int>(cli.getInt("window", 10));
  cfg.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  const bool asJson = cli.has("json");
  const auto traceTail = static_cast<std::size_t>(cli.getInt("trace", 0));
  if (traceTail > 0) cfg.traceCapacity = traceTail;
  if (cli.rejectUnknownArgs("explore")) return 2;

  const core::AnalyticModel theory = core::analyze(cfg);
  core::Simulation sim(cfg);
  const metrics::SimResult r = sim.run();

  if (asJson) {
    std::printf("%s\n", metrics::toJson(r).c_str());
    return 0;
  }

  std::printf("%s\n\n", cfg.describe().c_str());

  metrics::Table main({"metric", "value"});
  main.addRow({"queries answered", metrics::Table::fmtInt(r.throughput())});
  main.addRow({"  predicted (closed form)",
               metrics::Table::fmtInt(theory.predictedQueries(cfg.simTime))});
  main.addRow({"uplink check bits/query",
               metrics::Table::fmt(r.uplinkCheckBitsPerQuery(), 2)});
  main.addRow({"hit ratio %", metrics::Table::fmt(100 * r.hitRatio(), 1)});
  main.addRow({"avg query latency s", metrics::Table::fmt(r.avgQueryLatency, 2)});
  main.addRow({"stale reads", std::to_string(r.staleReads)});
  std::printf("%s\n", main.str().c_str());

  metrics::Table cache({"cache", "count"});
  cache.addRow({"invalidations", std::to_string(r.invalidations)});
  cache.addRow({"  false (copy was current)", std::to_string(r.falseInvalidations)});
  cache.addRow({"entries dropped", std::to_string(r.entriesDropped)});
  cache.addRow({"entries salvaged", std::to_string(r.entriesSalvaged)});
  cache.addRow({"checks sent", std::to_string(r.checksSent)});
  cache.addRow({"validity replies", std::to_string(r.validityReplies)});
  std::printf("%s\n", cache.str().c_str());

  metrics::Table chan({"channel use", "IR", "control", "data"});
  chan.addRow({"downlink kbit", metrics::Table::fmt(r.downlink.irBits / 1000, 0),
               metrics::Table::fmt(r.downlink.controlBits / 1000, 0),
               metrics::Table::fmt(r.downlink.bulkBits / 1000, 0)});
  chan.addRow({"uplink kbit", "-",
               metrics::Table::fmt(r.uplink.controlBits / 1000, 1),
               metrics::Table::fmt(r.uplink.bulkBits / 1000, 0)});
  chan.addRow({"reports", std::to_string(r.reportsTs + r.reportsExtended +
                                         r.reportsBs + r.reportsSig),
               std::to_string(r.reportsExtended) + " ext",
               std::to_string(r.reportsBs) + " BS"});
  std::printf("%s\n", chan.str().c_str());

  std::printf("clients: %.0f..%.0f queries each (mean %.1f, Jain %.3f), "
              "hit%% %.1f..%.1f\n",
              r.clients.minQueries, r.clients.maxQueries,
              r.clients.meanQueries, r.clients.fairness,
              100 * r.clients.minHitRatio, 100 * r.clients.maxHitRatio);
  std::printf("client radio: tx %.0f bits/q, rx %.0f bits/q, %.2f mJ/q\n",
              r.clientTxBits / std::max(1.0, r.throughput()),
              r.clientRxBits / std::max(1.0, r.throughput()),
              1000 * r.energyPerQueryJoules());
  std::printf("theory: IR share %.1f%%, data capacity %.3f items/s, "
              "demand %.2f q/s\n",
              100 * theory.irShare, theory.dataCapacityPerSecond,
              theory.demandQueriesPerSecond);

  if (traceTail > 0) {
    std::printf("\nlast %zu model events:\n%s", traceTail,
                sim.trace().format(traceTail).c_str());
  }
  return 0;
}
