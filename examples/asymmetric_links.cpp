// Example: the asymmetric communication environment (paper §1, Figures
// 15/16). Uplink capacity is a small fraction of downlink capacity — and
// every uplink bit also costs the client battery (transmit power grows with
// the fourth power of distance). This example sweeps the asymmetry ratio
// and finds the crossover where TS-checking's fat check messages start
// costing more throughput than they buy.
//
//   ./asymmetric_links [--simtime T] [--seed S]

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  core::SimConfig base;
  base.simTime = cli.getDouble("simtime", 50000.0);
  base.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  base.dbSize = 5000;
  base.meanDisconnectTime = 4000.0;
  if (cli.rejectUnknownArgs("asymmetric_links")) return 2;

  std::printf("Throughput across uplink:downlink asymmetry (UNIFORM)\n\n");
  metrics::Table t({"uplink bps", "ratio", "AAW", "TS-check", "AAW wins by",
                    "TS-check uplink busy%", "AAW uplink busy%"});
  double crossover = -1;
  for (double up : {100.0, 200.0, 400.0, 600.0, 800.0, 1000.0, 10000.0}) {
    core::SimConfig cfg = base;
    cfg.uplinkBps = up;

    cfg.scheme = schemes::SchemeKind::kAaw;
    const auto aaw = core::Simulation(cfg).run();
    cfg.scheme = schemes::SchemeKind::kTsChecking;
    const auto check = core::Simulation(cfg).run();

    const double edge = aaw.throughput() - check.throughput();
    if (edge > 0 && crossover < 0) crossover = up;
    t.addRow({metrics::Table::fmtInt(up),
              metrics::Table::fmt(up / base.downlinkBps, 2),
              metrics::Table::fmtInt(aaw.throughput()),
              metrics::Table::fmtInt(check.throughput()),
              metrics::Table::fmtInt(edge),
              metrics::Table::fmt(
                  100 * check.uplink.totalSeconds() / check.simTime, 1),
              metrics::Table::fmt(
                  100 * aaw.uplink.totalSeconds() / aaw.simTime, 1)});
  }
  std::printf("%s\n", t.str().c_str());
  if (crossover > 0) {
    std::printf(
        "Below ~%.0f bps the adaptive scheme out-runs TS-checking: the thin\n"
        "uplink can no longer afford per-client cache inventories.\n",
        crossover);
  }
  return 0;
}
