// Ablation: the cache replacement policy the paper fixes (LRU, §4) against
// FIFO and RANDOM under the HOTCOLD workload, across cache pressure levels.
//
// Expected (and measured) outcome: the three policies tie. Table 2's
// pattern is uniform *within* each region — the independent-reference
// model with equal popularities, under which LRU, FIFO and RANDOM have
// provably equal hit ratios. The ablation documents that the paper's LRU
// choice is safe but not load-bearing; a skewed within-region popularity
// (e.g. Zipf) would be needed to separate them.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_replacement")) return 2;

  std::printf(
      "# Replacement policy vs cache pressure (HOTCOLD, N=10000, AAW,\n"
      "#  hot region 400 items, 90%% hot queries)\n");
  metrics::Table t({"buffer", "capacity", "LRU q", "FIFO q", "RANDOM q",
                    "LRU hit%", "FIFO hit%", "RANDOM hit%"});
  for (double frac : {0.002, 0.005, 0.02}) {
    std::vector<std::string> row;
    std::vector<std::string> hits;
    for (cache::ReplacementPolicy policy :
         {cache::ReplacementPolicy::kLru, cache::ReplacementPolicy::kFifo,
          cache::ReplacementPolicy::kRandom}) {
      core::SimConfig cfg;
      cfg.scheme = schemes::SchemeKind::kAaw;
      cfg.workload = core::WorkloadKind::kHotCold;
      cfg.hotQuery = {0, 400, 0.9};
      cfg.meanThinkTime = 30.0;   // enough traffic to exercise eviction
      cfg.dataItemBytes = 1024;   // cheap fetches: caches actually fill
      cfg.clientBufferFrac = frac;
      cfg.replacement = policy;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = 400.0;
      const auto r = core::Simulation(cfg).run();
      if (row.empty()) {
        row.push_back(metrics::Table::fmt(100 * frac, 1) + "%");
        row.push_back(metrics::Table::fmtInt(
            static_cast<double>(cfg.cacheCapacity())));
      }
      row.push_back(metrics::Table::fmtInt(r.throughput()));
      hits.push_back(metrics::Table::fmt(100 * r.hitRatio(), 1));
    }
    row.insert(row.end(), hits.begin(), hits.end());
    t.addRow(std::move(row));
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
