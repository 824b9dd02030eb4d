// Ablation for DESIGN.md substitution #4: the paper's §4 text admits two
// disconnection models (a per-interval coin while idle vs a post-query
// coin). This bench runs both across the probability axis for AAW and
// TS-checking and shows the figure shapes are robust to the choice.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_disconnect_model")) return 2;

  std::printf(
      "# Disconnect model robustness (UNIFORM, N=10000, disc=400)\n"
      "# throughput / uplink-bits-per-query per (model, scheme)\n");
  metrics::Table t({"p", "coin AAW", "coin TS-ch", "postq AAW", "postq TS-ch",
                    "coin AAW b/q", "coin TS-ch b/q", "postq AAW b/q",
                    "postq TS-ch b/q"});
  for (double p : {0.1, 0.2, 0.4, 0.8}) {
    std::vector<std::string> thr, upl;
    for (workload::DisconnectModel model :
         {workload::DisconnectModel::kIntervalCoin,
          workload::DisconnectModel::kPostQuery}) {
      for (schemes::SchemeKind kind :
           {schemes::SchemeKind::kAaw, schemes::SchemeKind::kTsChecking}) {
        core::SimConfig cfg;
        cfg.scheme = kind;
        cfg.disconnectModel = model;
        cfg.disconnectProb = p;
        cfg.meanDisconnectTime = 400.0;
        cfg.simTime = simTime;
        cfg.seed = seed;
        const auto r = core::Simulation(cfg).run();
        thr.push_back(metrics::Table::fmtInt(r.throughput()));
        upl.push_back(metrics::Table::fmt(r.uplinkCheckBitsPerQuery(), 1));
      }
    }
    std::vector<std::string> row{metrics::Table::fmt(p, 1)};
    row.insert(row.end(), thr.begin(), thr.end());
    row.insert(row.end(), upl.begin(), upl.end());
    t.addRow(std::move(row));
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
