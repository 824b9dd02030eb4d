// Ablation: the paper's *power efficiency* criterion (§1) made explicit.
// Counts every bit a mobile host transmits (expensive — the paper cites
// transmit power growing with the fourth power of distance) and receives
// (cheap but not free), and charges a linear energy model. BS/SIG make
// clients listen to fat reports every period (rx-heavy); TS-checking makes
// reconnecting clients talk (tx-heavy); the adaptive schemes do neither.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  const double txJpb = cli.getDouble("txjpb", 1e-5);
  const double rxJpb = cli.getDouble("rxjpb", 1e-6);
  if (cli.rejectUnknownArgs("bench_ablation_energy")) return 2;

  for (std::size_t dbSize : {std::size_t{10000}, std::size_t{80000}}) {
    std::printf(
        "# Client radio energy per answered query (UNIFORM, N=%zu,\n"
        "#  p=0.1, disc=400, tx=%.0e J/bit, rx=%.0e J/bit)\n",
        dbSize, txJpb, rxJpb);
    metrics::Table t({"scheme", "queries", "tx bits/q", "rx bits/q",
                      "energy mJ/q", "tx share%"});
    for (schemes::SchemeKind kind : schemes::kAllSchemes) {
      core::SimConfig cfg;
      cfg.scheme = kind;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.dbSize = dbSize;
      cfg.meanDisconnectTime = 400.0;
      const auto r = core::Simulation(cfg).run();
      const double q = std::max<double>(1.0, r.throughput());
      const double energy = r.radioEnergyJoules(txJpb, rxJpb);
      const double txEnergy = r.clientTxBits * txJpb;
      t.addRow({schemes::schemeName(kind), metrics::Table::fmtInt(q),
                metrics::Table::fmt(r.clientTxBits / q, 1),
                metrics::Table::fmt(r.clientRxBits / q, 1),
                metrics::Table::fmt(1000 * energy / q, 2),
                metrics::Table::fmt(100 * txEnergy / energy, 1)});
    }
    std::printf("%s\n", t.str().c_str());
  }
  return 0;
}
