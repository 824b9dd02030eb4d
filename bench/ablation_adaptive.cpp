// Ablation: inside the adaptive servers. For AFW and AAW across mean
// disconnection times, show how often the server stayed on IR(w), helped
// with an extended window IR(w'), helped with the full IR(BS), or declined
// a hopeless Tlb — the decision machinery of §3 made visible. The headline:
// AAW substitutes cheap extended windows for most of AFW's BS broadcasts.

#include <cstdio>

#include "core/adaptive_common.hpp"
#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_adaptive")) return 2;

  std::printf(
      "# Adaptive server decisions vs mean disconnection time\n"
      "# (UNIFORM, N=10000, p=0.1, w=10 -> window covers 200 s)\n");
  metrics::Table t({"scheme", "disc", "IR(w)", "IR(w')", "IR(BS)", "Tlbs",
                    "declined", "IR bits total", "queries"});
  for (schemes::SchemeKind kind :
       {schemes::SchemeKind::kAfw, schemes::SchemeKind::kAaw}) {
    for (double disc : {200.0, 400.0, 1000.0, 4000.0}) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = disc;
      core::Simulation sim(cfg);
      sim.runUntil(cfg.simTime);
      const auto r = sim.snapshot();
      const auto& server =
          dynamic_cast<const core::AdaptiveServerBase&>(sim.serverScheme());
      const auto& d = server.decisions();
      t.addRow({schemes::schemeName(kind), metrics::Table::fmtInt(disc),
                std::to_string(d.tsReports), std::to_string(d.extendedReports),
                std::to_string(d.bsReports), std::to_string(d.tlbsReceived),
                std::to_string(d.tlbsDeclined),
                metrics::Table::fmtInt(r.downlink.irBits),
                metrics::Table::fmtInt(r.throughput())});
    }
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
