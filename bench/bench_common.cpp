#include "bench_common.hpp"

#include <cstdio>

#include <unistd.h>

#include "metrics/json.hpp"
#include "runner/cli.hpp"
#include "runner/figures.hpp"

namespace mci::bench {

int runFigureMain(int figureNumber, int argc, char** argv) {
  runner::Cli cli(argc, argv);
  runner::RunOptions opts;
  opts.simTime = cli.getDouble("simtime", 0.0);
  opts.seed = static_cast<std::uint64_t>(cli.getInt("seed", 0));
  opts.threads = static_cast<unsigned>(cli.getInt("threads", 0));
  opts.quiet = cli.has("quiet") || isatty(fileno(stderr)) == 0;
  opts.replications = static_cast<unsigned>(cli.getInt("reps", 1));
  const bool csv = cli.has("csv");
  const bool json = cli.has("json");
  if (cli.rejectUnknownArgs(argv[0])) return 2;

  const runner::FigureSpec& spec = runner::figureByNumber(figureNumber);
  const metrics::FigureData data = runner::runFigure(spec, opts);
  const int precision =
      spec.metric == runner::FigureMetric::kThroughput ? 0 : 2;
  std::printf("%s", data.toTable(precision).c_str());
  if (csv) std::printf("\n%s", data.toCsv().c_str());
  if (json) std::printf("\n%s\n", metrics::toJson(data).c_str());
  return 0;
}

}  // namespace mci::bench
