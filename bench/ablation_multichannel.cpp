// Extension bench for the paper's §6 future work: "develop caching
// strategies for the multiple-channel environment, where some channels are
// assigned as broadcast channels while others are point-to-point channels".
//
// We hold the *total* downlink budget at 20 kbps and compare:
//   (a) one shared 20 kbps channel (the paper's model, scaled),
//   (b) 10 kbps broadcast + one 10 kbps data channel,
//   (c) 10 kbps broadcast + two 5 kbps data channels.
// Splitting protects data transfers from fat reports (BS stops starving
// downloads) at the price of idle broadcast capacity under light report
// load — the trade-off the authors pose.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_multichannel")) return 2;

  struct Layout {
    const char* name;
    double broadcastBps;
    std::vector<double> dataBps;
  };
  const Layout layouts[] = {
      {"shared 20k", 20000.0, {}},
      {"10k + data 10k", 10000.0, {10000.0}},
      {"10k + 2x data 5k", 10000.0, {5000.0, 5000.0}},
  };

  std::printf(
      "# Multi-channel future work (UNIFORM, N=40000, p=0.1, disc=400,\n"
      "#  total downlink budget 20 kbps in every layout)\n");
  metrics::Table t({"layout", "scheme", "queries", "avg latency s",
                    "broadcast busy%", "data busy%"});
  for (const Layout& layout : layouts) {
    for (schemes::SchemeKind kind :
         {schemes::SchemeKind::kAaw, schemes::SchemeKind::kBs}) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.dbSize = 40000;  // fat BS reports: the interesting regime
      cfg.meanDisconnectTime = 400.0;
      cfg.downlinkBps = layout.broadcastBps;
      cfg.dataChannelBps = layout.dataBps;
      const auto r = core::Simulation(cfg).run();
      const double dataBusy =
          r.dataChannels.totalSeconds() /
          (layout.dataBps.empty()
               ? 1.0
               : simTime * static_cast<double>(layout.dataBps.size()));
      t.addRow({layout.name, schemes::schemeName(kind),
                metrics::Table::fmtInt(r.throughput()),
                metrics::Table::fmt(r.avgQueryLatency, 1),
                metrics::Table::fmt(
                    100 * r.downlink.totalSeconds() / simTime, 1),
                layout.dataBps.empty()
                    ? std::string("-")
                    : metrics::Table::fmt(100 * dataBusy, 1)});
    }
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
