// Sensitivity ablation: the two system knobs the paper fixes (broadcast
// period L = 20 s, Table 1) and never sweeps, plus the update skew Table 2
// reserves columns for but leaves empty (HotUpdateBounds/Prob). Both probe
// the robustness of the paper's conclusions:
//  * L trades report freshness (queries wait L/2 on average) against IR
//    overhead per second;
//  * skewed updates concentrate invalidations on the hot query region —
//    the adversarial case for caching hot items.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_sensitivity")) return 2;

  std::printf("# Sensitivity to the broadcast period L (UNIFORM, N=10000)\n");
  metrics::Table tL({"L (s)", "AAW", "TS-check", "BS", "AAW latency",
                     "AAW IR share%", "BS IR share%"});
  for (double L : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    std::vector<std::string> row{metrics::Table::fmtInt(L)};
    std::vector<std::string> extra;
    for (schemes::SchemeKind kind :
         {schemes::SchemeKind::kAaw, schemes::SchemeKind::kTsChecking,
          schemes::SchemeKind::kBs}) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = 400.0;
      cfg.broadcastPeriod = L;
      const auto r = core::Simulation(cfg).run();
      row.push_back(metrics::Table::fmtInt(r.throughput()));
      if (kind == schemes::SchemeKind::kAaw) {
        extra.push_back(metrics::Table::fmt(r.avgQueryLatency, 1));
        extra.push_back(metrics::Table::fmt(100 * r.downlinkIrFraction(), 2));
      }
      if (kind == schemes::SchemeKind::kBs) {
        extra.push_back(metrics::Table::fmt(100 * r.downlinkIrFraction(), 1));
      }
    }
    row.insert(row.end(), extra.begin(), extra.end());
    tL.addRow(std::move(row));
  }
  std::printf("%s\n", tL.str().c_str());

  std::printf(
      "# Update skew (HOTCOLD queries; updates directed at the hot query\n"
      "# region with probability q — Table 2's reserved HotUpdate rows)\n");
  metrics::Table tQ({"hot update prob", "AAW", "TS-check", "BS", "AAW hit%",
                     "AAW false inval"});
  for (double q : {0.0, 0.2, 0.5, 0.8}) {
    std::vector<std::string> row{metrics::Table::fmt(q, 1)};
    std::string hit, falseInv;
    for (schemes::SchemeKind kind :
         {schemes::SchemeKind::kAaw, schemes::SchemeKind::kTsChecking,
          schemes::SchemeKind::kBs}) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.workload = core::WorkloadKind::kHotCold;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = 400.0;
      if (q > 0) {
        cfg.hotColdUpdates = true;
        cfg.hotUpdate = {0, 100, q};  // aimed at the hot query region
      }
      const auto r = core::Simulation(cfg).run();
      row.push_back(metrics::Table::fmtInt(r.throughput()));
      if (kind == schemes::SchemeKind::kAaw) {
        hit = metrics::Table::fmt(100 * r.hitRatio(), 1);
        falseInv = std::to_string(r.falseInvalidations);
      }
    }
    row.push_back(hit);
    row.push_back(falseInv);
    tQ.addRow(std::move(row));
  }
  std::printf("%s", tQ.str().c_str());
  return 0;
}
