// Convenience driver: regenerates every paper figure (5..16) in one go and
// optionally writes per-figure CSVs into a directory.
//
//   ./bench_all_figures [--simtime S] [--reps R] [--outdir results/]

#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "runner/cli.hpp"
#include "runner/figures.hpp"

int main(int argc, char** argv) {
  using namespace mci;
  runner::Cli cli(argc, argv);
  runner::RunOptions opts;
  opts.simTime = cli.getDouble("simtime", 0.0);
  opts.seed = static_cast<std::uint64_t>(cli.getInt("seed", 0));
  opts.threads = static_cast<unsigned>(cli.getInt("threads", 0));
  opts.replications = static_cast<unsigned>(cli.getInt("reps", 1));
  opts.quiet = cli.has("quiet") || isatty(fileno(stderr)) == 0;
  const std::string outdir = cli.getStr("outdir", "");
  if (cli.rejectUnknownArgs("bench_all_figures")) return 2;

  for (const runner::FigureSpec& spec : runner::paperFigures()) {
    const metrics::FigureData data = runner::runFigure(spec, opts);
    const int precision =
        spec.metric == runner::FigureMetric::kThroughput ? 0 : 2;
    std::printf("%s\n", data.toTable(precision).c_str());
    if (!outdir.empty()) {
      char name[64];
      std::snprintf(name, sizeof name, "%s/fig%02d.csv", outdir.c_str(),
                    spec.number);
      std::ofstream out(name);
      if (out) {
        out << data.toCsv();
      } else {
        std::fprintf(stderr, "cannot write %s\n", name);
      }
    }
  }
  return 0;
}
