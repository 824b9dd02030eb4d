// Ablation: broadcast-side adaptation (DTS, per-item windows, our
// concretization of [5]'s sketch) vs feedback-driven adaptation (AAW, the
// paper's contribution). DTS lets sleepers salvage cold items with zero
// uplink, but pays for them in *every* report: cold updates linger up to
// maxWindow intervals. AAW pays only when a sleeper actually asks.

#include <cstdio>

#include "core/simulation.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  const double simTime = cli.getDouble("simtime", 50000.0);
  const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  if (cli.rejectUnknownArgs("bench_ablation_dts")) return 2;

  std::printf(
      "# DTS (per-item windows) vs AAW vs TS across doze lengths\n"
      "# (HOTCOLD, N=10000, p=0.1; DTS maxWindow swept)\n");
  metrics::Table t({"disc", "scheme", "queries", "hit%", "uplink b/q",
                    "avg IR bits", "dropped", "salvaged"});
  for (double disc : {400.0, 2000.0, 8000.0}) {
    struct Variant {
      schemes::SchemeKind kind;
      int dtsMaxWindow;
      const char* label;
    };
    const Variant variants[] = {
        {schemes::SchemeKind::kTs, 0, "TS"},
        {schemes::SchemeKind::kDts, 50, "DTS w<=50"},
        {schemes::SchemeKind::kDts, 400, "DTS w<=400"},
        {schemes::SchemeKind::kAaw, 0, "AAW"},
    };
    for (const Variant& v : variants) {
      core::SimConfig cfg;
      cfg.scheme = v.kind;
      cfg.workload = core::WorkloadKind::kHotCold;
      cfg.simTime = simTime;
      cfg.seed = seed;
      cfg.meanDisconnectTime = disc;
      if (v.dtsMaxWindow > 0) cfg.dtsMaxWindow = v.dtsMaxWindow;
      const auto r = core::Simulation(cfg).run();
      const double avgIr =
          r.downlink.irCount
              ? r.downlink.irBits / static_cast<double>(r.downlink.irCount)
              : 0.0;
      t.addRow({metrics::Table::fmtInt(disc), v.label,
                metrics::Table::fmtInt(r.throughput()),
                metrics::Table::fmt(100 * r.hitRatio(), 1),
                metrics::Table::fmt(r.uplinkCheckBitsPerQuery(), 1),
                metrics::Table::fmtInt(avgIr),
                std::to_string(r.entriesDropped),
                std::to_string(r.entriesSalvaged)});
    }
  }
  std::printf("%s", t.str().c_str());
  return 0;
}
