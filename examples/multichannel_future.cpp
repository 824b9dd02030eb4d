// Example: the paper's §6 future work, interactively. "As future work, we
// will develop caching strategies for the multiple-channel environment,
// where some channels are assigned as broadcast channels while others are
// point-to-point channels." This example fixes a total downlink budget and
// sweeps how much of it is carved into dedicated data channels, for a lean
// report scheme (AAW) and a fat one (BS).
//
//   ./multichannel_future [--simtime T] [--budget BPS] [--dbsize N]

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const double budget = cli.getDouble("budget", 20000.0);
  const auto dbSize = static_cast<std::size_t>(cli.getInt("dbsize", 40000));
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("multichannel_future")) return 2;

  std::printf(
      "Splitting a %.0f bps downlink budget between broadcast and dedicated\n"
      "data channels (N=%zu, UNIFORM, p=0.1, disc=400s)\n\n",
      budget, dbSize);

  metrics::Table t({"broadcast", "data channels", "AAW queries", "BS queries",
                    "AAW p95 lat", "BS p95 lat"});
  struct Split {
    double broadcastFrac;
    int channels;
  };
  for (const Split& split : {Split{1.0, 0}, Split{0.5, 1}, Split{0.5, 2},
                             Split{0.25, 1}}) {
    const double broadcastBps = budget * split.broadcastFrac;
    const double dataTotal = budget - broadcastBps;
    std::vector<double> dataBps(
        split.channels, split.channels ? dataTotal / split.channels : 0.0);

    std::vector<std::string> row{
        metrics::Table::fmtInt(broadcastBps),
        split.channels == 0
            ? std::string("none (shared)")
            : std::to_string(split.channels) + " x " +
                  metrics::Table::fmtInt(dataBps[0]) + " bps"};
    std::vector<std::string> latencies;
    for (schemes::SchemeKind kind :
         {schemes::SchemeKind::kAaw, schemes::SchemeKind::kBs}) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.dbSize = dbSize;
      cfg.meanDisconnectTime = 400.0;
      cfg.downlinkBps = broadcastBps;
      cfg.dataChannelBps = dataBps;
      const auto r = core::Simulation(cfg).run();
      row.push_back(metrics::Table::fmtInt(r.throughput()));
      latencies.push_back(metrics::Table::fmt(r.p95QueryLatency, 0));
    }
    row.insert(row.end(), latencies.begin(), latencies.end());
    t.addRow(std::move(row));
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "Reading the table: with lean AAW reports, sharing the whole budget\n"
      "wins (data can borrow every idle bit). With BS's 2N-bit reports the\n"
      "shared channel taxes every download; carving out data channels caps\n"
      "the damage — the trade-off the authors flagged for future study.\n");
  return 0;
}
