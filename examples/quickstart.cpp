// Quickstart: run one simulation per scheme on the paper's default
// configuration (Table 1) and print a side-by-side comparison.
//
//   ./quickstart [--dbsize N] [--simtime T] [--seed S] [--workload UNIFORM|HOTCOLD]
//
// This is the five-minute tour of the library: configure a SimConfig, pick
// a scheme, call Simulation::run(), read the SimResult.

#include <cstdio>
#include <string>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;

  runner::Cli cli(argc, argv);
  core::SimConfig base;
  base.dbSize = static_cast<std::size_t>(cli.getInt("dbsize", 10000));
  base.simTime = cli.getDouble("simtime", 100000.0);
  base.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  base.meanDisconnectTime = cli.getDouble("disc", 400.0);
  base.disconnectProb = cli.getDouble("p", 0.1);
  if (cli.getStr("workload", "UNIFORM") == "HOTCOLD") {
    base.workload = core::WorkloadKind::kHotCold;
  }
  if (cli.rejectUnknownArgs("quickstart")) return 2;

  std::printf("mobicache quickstart\n%s\n\n", base.describe().c_str());

  metrics::Table table({"scheme", "queries", "hit%", "uplink check b/q",
                        "stale", "false inval", "salvaged", "IR share%"});
  for (schemes::SchemeKind kind : schemes::kPaperSchemes) {
    core::SimConfig cfg = base;
    cfg.scheme = kind;
    core::Simulation simulation(cfg);
    const metrics::SimResult r = simulation.run();
    table.addRow({schemes::schemeName(kind),
                  metrics::Table::fmtInt(r.throughput()),
                  metrics::Table::fmt(100 * r.hitRatio(), 1),
                  metrics::Table::fmt(r.uplinkCheckBitsPerQuery(), 1),
                  std::to_string(r.staleReads),
                  std::to_string(r.falseInvalidations),
                  std::to_string(r.entriesSalvaged),
                  metrics::Table::fmt(100 * r.downlinkIrFraction(), 1)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading the table: the adaptive schemes (AAW/AFW) should sit near\n"
      "TS-check on throughput while spending a fraction of its uplink bits;\n"
      "BS spends zero uplink but pays ~2 bits/item of downlink every period.\n");
  return 0;
}
