// Ablation (beyond the paper's four simulated schemes): all seven
// implemented invalidation schemes side by side, including the §2
// baselines the paper describes but excludes from its figures (TS
// no-checking, AT, SIG) — with the reason for the exclusion visible in the
// numbers: TS and AT shed whole caches after long dozes, SIG pays a fixed
// m-signature broadcast and collateral invalidations.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_schemes")) return 2;

  for (core::WorkloadKind wl :
       {core::WorkloadKind::kUniform, core::WorkloadKind::kHotCold}) {
    std::printf("# All schemes, %s workload (N=10000, p=0.1, disc=400)\n",
                core::workloadName(wl));
    metrics::Table t({"scheme", "queries", "hit%", "uplink b/q", "false inval",
                      "dropped", "salvaged", "IR share%"});
    for (schemes::SchemeKind kind : schemes::kAllSchemes) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.workload = wl;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = 400.0;
      const auto r = core::Simulation(cfg).run();
      t.addRow({schemes::schemeName(kind),
                metrics::Table::fmtInt(r.throughput()),
                metrics::Table::fmt(100 * r.hitRatio(), 1),
                metrics::Table::fmt(r.uplinkCheckBitsPerQuery(), 1),
                std::to_string(r.falseInvalidations),
                std::to_string(r.entriesDropped),
                std::to_string(r.entriesSalvaged),
                metrics::Table::fmt(100 * r.downlinkIrFraction(), 1)});
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}
