// Ablation (not in the paper): how the broadcast window size w drives the
// TS-family trade-off the adaptive schemes are built to escape. Small w
// makes IR(w) cheap but drops/suspends more caches after dozes; large w
// fattens every report. AAW should be insensitive to w — that is the whole
// point of adapting.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_window")) return 2;

  const int windows[] = {1, 2, 5, 10, 20, 50};
  const schemes::SchemeKind kinds[] = {schemes::SchemeKind::kTs,
                                       schemes::SchemeKind::kTsChecking,
                                       schemes::SchemeKind::kAaw};

  std::printf("# Ablation: window size w (UNIFORM, N=10000, p=0.1, disc=400)\n");
  std::printf("# columns: throughput | entries dropped | downlink IR share %%\n");
  metrics::Table t({"w", "TS", "TS-check", "AAW", "TSdrop", "TS-ch drop",
                    "AAWdrop", "TS ir%", "TS-ch ir%", "AAW ir%"});
  for (int w : windows) {
    std::vector<std::string> row{std::to_string(w)};
    std::vector<std::string> drops, irs;
    for (schemes::SchemeKind kind : kinds) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = 400.0;
      cfg.windowIntervals = w;
      const auto r = core::Simulation(cfg).run();
      row.push_back(metrics::Table::fmtInt(r.throughput()));
      drops.push_back(std::to_string(r.entriesDropped));
      irs.push_back(metrics::Table::fmt(100 * r.downlinkIrFraction(), 1));
    }
    row.insert(row.end(), drops.begin(), drops.end());
    row.insert(row.end(), irs.begin(), irs.end());
    t.addRow(std::move(row));
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
