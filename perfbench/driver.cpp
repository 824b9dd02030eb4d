// Benchmark driver: runs one workload through the library's public APIs
// and prints one JSON object (the last line of stdout) with its
// correctness verdict, end-to-end metrics and, in the traced build,
// per-layer metrics. run.py builds it, runs it and formats the result.
//
//   perfbench_run --workload paper_figures|swarm_steady|swarm_churn
//                 --seed N --seconds S [--goldens results]
//   perfbench_traced ... [--trace-out spans.json]
//
// Workloads (why each exists: NOTES.md):
//   paper_figures  all twelve runner::paperFigures() sweeps through
//                  runner::runSweep on min(4, nproc) threads, repeated for
//                  --seconds; every pass is compared with the golden CSVs.
//   swarm_steady   1-shard live::Cluster + swarm::SwarmEmulator (AAW, low
//                  update rate, short dozes) on one live::Reactor.
//   swarm_churn    3 shards x 1 endpoint, AFW, HOTCOLD, high update rate,
//                  long dozes.
//
// The swarm runs are open loop: the cluster's IR timer and the model-clock
// think/doze draws fire on schedule however far behind the reactor is, so
// falling behind shows up as IR lag and misses, never as less offered load.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_probe.hpp"
#include "bench_util.hpp"
#include "core/config.hpp"
#include "core/simulation.hpp"
#include "live/cluster.hpp"
#include "live/reactor.hpp"
#include "report/bs_report.hpp"
#include "report/codec.hpp"
#include "report/ts_report.hpp"
#include "runner/cli.hpp"
#include "runner/figures.hpp"
#include "runner/sweep.hpp"
#include "schemes/factory.hpp"
#include "swarm/engine.hpp"

namespace {

using namespace mci;
using perfbench::median;
using perfbench::percentile;

// ---------------------------------------------------------------------------
// Clocks and process accounting.

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double threadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct ProcessCpu {
  double user = 0;
  double sys = 0;
  [[nodiscard]] double total() const { return user + sys; }
};

ProcessCpu processCpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: recorded only in the traced build, kept in memory, written at exit.

struct Span {
  std::string name;
  int parent = -1;
  int thread = 0;
  double start = 0;  ///< wall seconds
  double end = 0;
  double cpu = 0;  ///< CPU seconds of `thread` inside the span (0 = async)
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Records a finished span; returns its id (-1 when tracing is off).
  int add(std::string name, int parent, double start, double end, double cpu) {
    if (!on_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), parent, threadIndexLocked(), start,
                          end, cpu});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span on the calling thread; close() fills its end and CPU.
  int open(std::string name, int parent = -1) {
    if (!on_) return -1;
    const double cpu = threadCpuNow();
    const int id = add(std::move(name), parent, wallNow(), 0, cpu);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    const double cpu = threadCpuNow();
    const double end = wallNow();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = end;
    spans_[id].cpu = cpu - spans_[id].cpu;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// CPU seconds of each span not covered by its same-thread children.
  [[nodiscard]] std::vector<double> selfCpu() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].cpu;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[s.parent].thread == s.thread) {
        self[s.parent] -= s.cpu;
      }
    }
    return self;
  }

  /// Named-span CPU started in [from, to) as a share of `processCpu`.
  [[nodiscard]] double attributedFrac(double from, double to,
                                      double processCpu) const {
    const std::vector<double> self = selfCpu();
    double sum = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].start >= from && spans_[i].start < to) sum += self[i];
    }
    return processCpu > 0 ? sum / processCpu : 0.0;
  }

  bool write(const std::string& path, double origin) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::vector<double> self = selfCpu();
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"thread\":%d,"
                   "\"start_s\":%.9f,\"end_s\":%.9f,\"cpu_s\":%.9f,"
                   "\"self_cpu_s\":%.9f}%s\n",
                   i, s.name.c_str(), s.parent, s.thread, s.start - origin,
                   s.end - origin, s.cpu, self[i],
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
  }

 private:
  int threadIndexLocked() {
    const auto id = std::this_thread::get_id();
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const int idx = static_cast<int>(threads_.size());
    threads_.emplace(id, idx);
    return idx;
  }

  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// Times `fn` on the calling thread as a closed span under `parent`.
/// Returns the span's wall seconds whether or not tracing is on.
template <typename Fn>
double timed(Tracer& tracer, const char* name, int parent, Fn&& fn) {
  const double cpu0 = threadCpuNow();
  const double t0 = wallNow();
  fn();
  const double t1 = wallNow();
  tracer.add(name, parent, t0, t1, threadCpuNow() - cpu0);
  return t1 - t0;
}

// ---------------------------------------------------------------------------
// Result document.

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::pair<std::string, double>> info;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

void printResult(const std::string& workload, const Result& r) {
  auto dict = [](const std::vector<std::pair<std::string, double>>& kv) {
    std::string s = "{";
    char buf[64];
    for (std::size_t i = 0; i < kv.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", kv[i].second);
      s += (i ? ", \"" : "\"") + kv[i].first + "\": " + buf;
    }
    return s + "}";
  };
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i ? ", \"" : "\"") + jsonEscape(r.problems[i]) + "\"";
  }
  problems += "]";
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"problems\": %s, \"e2e\": %s, \"layers\": %s, "
      "\"info\": %s}\n",
      workload.c_str(), r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), problems.c_str(),
      dict(r.e2e).c_str(), dict(r.layers).c_str(), dict(r.info).c_str());
  std::fflush(stdout);
}

/// Deterministic Fisher-Yates order of [0, n) from `seed` (splitmix64).
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t x = seed;
  auto next = [&x] {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
  return order;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  std::string goldens = "results";
  std::string traceOut;
};

// ---------------------------------------------------------------------------
// paper_figures

/// The config runner::runSweep gives cell (xi, si) of `sweep`.
core::SimConfig cellConfig(const runner::SweepSpec& sweep, std::size_t xi,
                           std::size_t si) {
  core::SimConfig cfg = sweep.base;
  sweep.apply(cfg, sweep.xs[xi]);
  cfg.scheme = sweep.schemes[si];
  cfg.seed = sweep.commonRandomNumbers
                 ? sweep.base.seed + 1000003ULL * xi
                 : sweep.base.seed + 1000003ULL * xi + 7919ULL * (si + 1);
  return cfg;
}

/// runner::runFigure's single-replication shaping of a finished sweep.
std::string figureCsv(const runner::FigureSpec& spec,
                      const std::vector<runner::SweepCell>& cells) {
  metrics::FigureData data;
  data.title = spec.title;
  data.subtitle = spec.subtitle;
  data.xLabel = spec.xLabel;
  data.yLabel = runner::figureMetricLabel(spec.metric);
  data.xs = spec.sweep.xs;
  const std::size_t ns = spec.sweep.schemes.size();
  for (std::size_t si = 0; si < ns; ++si) {
    metrics::Series series;
    series.name = schemes::schemeLegend(spec.sweep.schemes[si]);
    for (std::size_t xi = 0; xi < data.xs.size(); ++xi) {
      series.ys.push_back(
          runner::figureMetricValue(spec.metric, cells[xi * ns + si].result));
    }
    data.series.push_back(std::move(series));
  }
  return data.toCsv();
}

Result runPaperFigures(const Args& args, Tracer& tracer) {
  Result res;
  // One core is left to the OS and co-tenants: with a worker per core,
  // one descheduled worker sets every sweep's tail on a shared host.
  const unsigned threads = std::clamp(
      std::thread::hardware_concurrency(), 2u, 4u) - 1;
  const std::vector<runner::FigureSpec>& figs = runner::paperFigures();

  std::vector<std::optional<std::string>> goldens;
  for (const runner::FigureSpec& spec : figs) {
    char path[512];
    std::snprintf(path, sizeof path, "%s/fig%02d.csv", args.goldens.c_str(),
                  spec.number);
    goldens.push_back(perfbench::readFile(path));
    res.check(goldens.back().has_value(),
              std::string("missing golden ") + path);
  }

  // Per figure: simulated seconds per sweep, and wall and CPU seconds of
  // each pass's sweep. Rates use the per-figure medians, so one sweep
  // slowed by a co-tenant does not move the result.
  std::vector<double> figSimS(figs.size(), 0);
  std::vector<std::vector<double>> figSetup(figs.size());
  std::vector<std::vector<double>> figWall(figs.size());
  std::vector<std::vector<double>> figCpu(figs.size());
  std::vector<double> lagsMs;  // sweep start -> cell done, per cell
  std::vector<double> cellMs;  // one cell's own wall time (traced)
  double cellBusyS = 0;
  double sweepWallS = 0;
  std::uint64_t cellsPerPass = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;
  const double runStart = wallNow();
  const ProcessCpu cpuStart = processCpuNow();
  double lastPass = 0;
  std::uint64_t passes = 0;
  for (std::uint64_t pass = 0;
       pass == 0 || wallNow() - runStart + 0.5 * lastPass < args.seconds;
       ++pass) {
    const double p0 = wallNow();
    std::uint64_t cells = 0;
    for (const std::size_t fi : seededOrder(figs.size(), args.seed * 1000 + pass)) {
      const runner::FigureSpec& spec = figs[fi];
      // Set-up: constructing the Simulation of every cell of the figure,
      // the work each cell does before its first event fires. It is
      // sampled before every sweep, so its median follows the whole run,
      // and timed in thread CPU, so descheduling does not count.
      for (int rep = 0; rep < 2; ++rep) {
        const int span = tracer.open("setup");
        const double cpu0 = threadCpuNow();
        for (std::size_t xi = 0; xi < spec.sweep.xs.size(); ++xi) {
          for (std::size_t si = 0; si < spec.sweep.schemes.size(); ++si) {
            const core::Simulation sim(cellConfig(spec.sweep, xi, si));
          }
        }
        figSetup[fi].push_back(threadCpuNow() - cpu0);
        tracer.close(span);
      }
      const int sweepSpan = tracer.open("runner.sweep");
      const ProcessCpu c0 = processCpuNow();
      const double s0 = wallNow();
      // Per worker thread: wall and CPU at its previous callback (or the
      // sweep start), so successive callbacks bracket one cell each.
      std::mutex mu;
      std::map<std::thread::id, std::pair<double, double>> last;
      const auto progress = [&](std::size_t, std::size_t) {
        const double t = wallNow();
        const std::lock_guard<std::mutex> lock(mu);
        lagsMs.push_back((t - s0) * 1e3);
        if (!tracer.on()) return;
        const double cpu = threadCpuNow();
        const auto [it, fresh] =
            last.try_emplace(std::this_thread::get_id(), s0, 0.0);
        tracer.add("runner.cell", sweepSpan, it->second.first, t,
                   cpu - it->second.second);
        cellMs.push_back((t - it->second.first) * 1e3);
        cellBusyS += t - it->second.first;
        it->second = {t, cpu};
      };
      const std::vector<runner::SweepCell> out =
          runner::runSweep(spec.sweep, threads, progress);
      figWall[fi].push_back(wallNow() - s0);
      figCpu[fi].push_back(processCpuNow().total() - c0.total());
      sweepWallS += figWall[fi].back();
      tracer.close(sweepSpan);
      timed(tracer, "runner.golden", -1, [&] {
        figSimS[fi] = 0;
        for (const runner::SweepCell& cell : out) {
          figSimS[fi] += cell.result.simTime;
          hits += cell.result.cacheHits;
          misses += cell.result.cacheMisses;
          stale += cell.result.staleReads;
        }
        cells += out.size();
        ++res.attempted;
        if (!goldens[fi]) {
          ++res.failed;
          return;
        }
        const std::string diff =
            perfbench::compareGolden(figureCsv(spec, out), *goldens[fi]);
        if (!diff.empty()) {
          ++res.failed;
          res.check(false, "fig" + std::to_string(spec.number) + ": " + diff);
        }
      });
    }
    cellsPerPass = cells;
    lastPass = wallNow() - p0;
    passes = pass + 1;
  }
  double simS = 0;
  double setupS = 0;
  double medWall = 0;
  double medCpu = 0;
  for (std::size_t fi = 0; fi < figs.size(); ++fi) {
    simS += figSimS[fi];
    setupS += median(figSetup[fi]);
    medWall += median(figWall[fi]);
    medCpu += median(figCpu[fi]);
  }
  res.check(res.failed == 0, "figure CSVs differ from the goldens");
  res.check(stale == 0, "stale reads in the simulator");

  res.e2e = {{"setup_s", setupS},
             {"peak_rss_mb", 0},
             {"sim_s_per_wall_s", simS / medWall},
             {"sim_s_per_cpu_s", simS / medCpu},
             {"lag_p50_ms", percentile(lagsMs, 50)},
             {"hit_ratio", static_cast<double>(hits) /
                               static_cast<double>(std::max<std::uint64_t>(1, hits + misses))}};
  res.info = {{"threads", threads},
              {"lag_p90_ms", percentile(lagsMs, 90)},
              {"passes", static_cast<double>(passes)},
              {"cells", static_cast<double>(lagsMs.size())},
              {"work_units", simS},
              {"work_cpu_s", medCpu},
              {"window_wall_s", wallNow() - runStart}};
  if (!tracer.on()) return res;

  // Traced only: the core/sim/report layers, timed directly on the first
  // x of every figure (each scheme) — runSweep's cells are opaque.
  const double sampleStart = wallNow();
  const ProcessCpu sampleCpu = processCpuNow();
  std::vector<double> ctorMs;
  std::vector<double> tsBuildUs;
  std::vector<double> bsBuildUs;
  std::uint64_t events = 0;
  double runCpuS = 0;
  for (const runner::FigureSpec& spec : figs) {
    for (std::size_t si = 0; si < spec.sweep.schemes.size(); ++si) {
      const core::SimConfig cfg = cellConfig(spec.sweep, 0, si);
      std::unique_ptr<core::Simulation> sim;
      ctorMs.push_back(1e3 * timed(tracer, "core.sim_ctor", -1, [&] {
                         sim = std::make_unique<core::Simulation>(cfg);
                       }));
      const double cpu0 = threadCpuNow();
      timed(tracer, "sim.run", -1, [&] { (void)sim->run(); });
      runCpuS += threadCpuNow() - cpu0;
      events += sim->simulator().eventsFired();
      const report::SizeModel sizes = cfg.sizeModel();
      const double now = cfg.simTime;
      const double window = cfg.windowIntervals * cfg.broadcastPeriod;
      for (int rep = 0; rep < 3; ++rep) {
        tsBuildUs.push_back(1e6 * timed(tracer, "report.ts_build", -1, [&] {
                              (void)report::TsReport::build(
                                  sim->history(), sizes, now, now - window);
                            }));
        bsBuildUs.push_back(1e6 * timed(tracer, "report.bs_build", -1, [&] {
                              (void)report::BsReport::build(sim->history(),
                                                            sizes, now);
                            }));
      }
      timed(tracer, "core.sim_dtor", -1, [&] { sim.reset(); });
    }
  }
  const double attributedCpu =
      tracer.attributedFrac(runStart, wallNow(), processCpuNow().total() - cpuStart.total());
  res.layers = {
      {"runner.cells", static_cast<double>(cellsPerPass)},
      {"runner.cell_ms_p50", percentile(cellMs, 50)},
      {"runner.cell_ms_max", percentile(cellMs, 100)},
      {"runner.pool_busy_frac", cellBusyS / (threads * sweepWallS)},
      {"core.sim_ctor_ms_p50", percentile(ctorMs, 50)},
      {"sim.events", static_cast<double>(events)},
      {"sim.ns_per_event", events ? runCpuS * 1e9 / static_cast<double>(events) : 0},
      {"report.ts_build_us_p50", percentile(tsBuildUs, 50)},
      {"report.bs_build_us_p50", percentile(bsBuildUs, 50)},
      {"attributed_cpu_frac", attributedCpu},
  };
  res.info.emplace_back("sample_wall_s", wallNow() - sampleStart);
  res.info.emplace_back("sample_cpu_s", processCpuNow().total() - sampleCpu.total());
  return res;
}

// ---------------------------------------------------------------------------
// swarm_steady / swarm_churn

struct SwarmSpec {
  schemes::SchemeKind scheme = schemes::SchemeKind::kAaw;
  std::uint32_t clients = 10000;
  std::uint32_t shards = 1;
  std::uint32_t endpoints = 4;
  double timeScale = 120;
  double period = 10;       ///< L, model s
  double updateGap = 50;    ///< mean model s between updates
  double think = 30;
  double queryItems = 4;
  double discProb = 0.1;
  double discTime = 40;
  int window = 10;
  std::size_t dbSize = 2000;
  double bufferFrac = 0.02;
  bool hotCold = false;      ///< HOTCOLD queries instead of UNIFORM
  double warmupS = 3;        ///< wall seconds before the window opens
};

SwarmSpec swarmSpec(const std::string& workload) {
  SwarmSpec s;
  if (workload == "swarm_steady") {
    // 600 s thinks cut the fetch traffic twentyfold from the 30 s default:
    // there the loopback data replies took 90% of the reactor's CPU and
    // the IR lag followed their bursts, not the report apply.
    s.clients = 20000;
    s.think = 600;
  }
  if (workload == "swarm_churn") {
    s.scheme = schemes::SchemeKind::kAfw;
    s.clients = 20000;
    s.shards = 3;
    s.endpoints = 1;
    s.updateGap = 0.5;
    s.discProb = 0.5;
    s.discTime = 300;  // >> w * L = 100 model s: most wakes are gaps
    s.hotCold = true;
  }
  return s;
}

/// One cluster plus emulator on one reactor. Members are destroyed in
/// reverse order: emulator, cluster, reactor.
struct SwarmStack {
  live::Reactor reactor;
  std::unique_ptr<live::Cluster> cluster;
  std::unique_ptr<swarm::SwarmEmulator> em;
};

core::SimConfig swarmConfig(const SwarmSpec& s, std::uint64_t seed) {
  core::SimConfig cfg;
  cfg.scheme = s.scheme;
  cfg.numClients = s.clients;
  cfg.dbSize = s.dbSize;
  cfg.clientBufferFrac = s.bufferFrac;
  cfg.broadcastPeriod = s.period;
  cfg.meanUpdateInterarrival = s.updateGap;
  cfg.meanThinkTime = s.think;
  cfg.meanItemsPerQuery = s.queryItems;
  cfg.disconnectProb = s.discProb;
  cfg.meanDisconnectTime = s.discTime;
  cfg.windowIntervals = s.window;
  if (s.hotCold) cfg.workload = core::WorkloadKind::kHotCold;
  cfg.seed = seed;
  cfg.simTime = 1e9;  // the driver ends the run, not the model horizon
  return cfg;
}

/// Builds the stack and drives the reactor until the emulator is ready.
/// Returns nullptr when it does not become ready within 30 s.
std::unique_ptr<SwarmStack> buildSwarm(const SwarmSpec& s,
                                       const core::SimConfig& cfg,
                                       bool countAllocs) {
  auto st = std::make_unique<SwarmStack>();
  live::ClusterOptions co;
  co.cfg = cfg;
  co.timeScale = s.timeScale;
  co.shardCount = s.shards;
  // The population's cold-start miss burst funnels through few endpoints;
  // the reply queue must absorb it (as mci_swarm configures it).
  co.maxSendQueueBytes = std::size_t{256} << 20;
  st->cluster = std::make_unique<live::Cluster>(st->reactor, co);
  swarm::SwarmOptions so;
  so.cfg = cfg;
  so.port = st->cluster->seedPort();
  so.clients = s.clients;
  so.endpointsPerShard = s.endpoints;
  live::Cluster* cluster = st->cluster.get();
  so.auditDbResolver = [cluster](std::uint32_t shard) -> const db::Database* {
    return shard < cluster->shardCount() ? &cluster->server(shard).database()
                                         : nullptr;
  };
  if (countAllocs) so.allocProbe = perfbench::kAllocProbe;
  st->em = std::make_unique<swarm::SwarmEmulator>(st->reactor, std::move(so));
  st->em->start();
  // Polls without blocking, so the handshake is timed at the speed of
  // the program and the loopback stack, not of idle-CPU wake-ups.
  const double deadline = wallNow() + 30;
  while (!st->em->ready()) {
    if (wallNow() > deadline) return nullptr;
    st->reactor.runOnce(0);
  }
  return st;
}

void teardown(SwarmStack& st) {
  st.em->shutdown();
  for (int i = 0; i < 5; ++i) st.reactor.runOnce(0);
}

/// The broadcast tick of the report a shard sent last.
std::uint64_t reportTick(const report::ReportCodec& codec,
                         const std::vector<std::uint8_t>& payload,
                         report::ReportPtr* decoded) {
  report::ReportPtr r = codec.decodeAny(payload);
  if (!r) return 0;
  const std::uint64_t tick = codec.quantize(r->broadcastTime);
  if (decoded != nullptr) *decoded = std::move(r);
  return tick;
}

Result runSwarm(const Args& args, Tracer& tracer) {
  Result res;
  const SwarmSpec spec = swarmSpec(args.workload);
  const core::SimConfig cfg = swarmConfig(spec, args.seed);

  // Set-up is timed in thread CPU: the stack has one thread, and the
  // handshake polls without blocking, so this is its wall time less any
  // descheduling. On a shared host the same construction runs at one of
  // a few speeds for a few hundred ms at a time, depending on what runs
  // beside it; the samples are spread over 3 s so the median spans
  // several of those states.
  std::vector<double> setups;
  std::unique_ptr<SwarmStack> st;
  for (int rep = 0; rep < 31; ++rep) {
    if (st) {
      teardown(*st);
      st.reset();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    const int span = tracer.open("setup");
    const double cpu0 = threadCpuNow();
    st = buildSwarm(spec, cfg, tracer.on());
    setups.push_back(threadCpuNow() - cpu0);
    tracer.close(span);
    if (!st) {
      res.check(false, "swarm never became ready");
      return res;
    }
  }
  live::Reactor& reactor = st->reactor;
  live::Cluster& cluster = *st->cluster;
  swarm::SwarmEmulator& em = *st->em;
  const live::LiveClock& clock = cluster.server(0).clock();
  const report::SizeModel sizes = cfg.sizeModel();
  const report::ReportCodec codec(sizes);

  perfbench::IrTracker ir(spec.timeScale, spec.period);
  std::vector<std::uint64_t> prevBroadcast;
  std::vector<std::uint64_t> prevDatagrams;
  std::uint64_t prevProcessed = em.stats().reportsProcessed;

  // Window snapshots.
  struct Snap {
    double wall = 0;
    ProcessCpu cpu;
    swarm::SwarmStats sw;
    swarm::MuxStats mux;
    live::ServerStats server;
    std::uint64_t heardTick = 0;
  };
  auto snap = [&] {
    return Snap{wallNow(), processCpuNow(), em.stats(), em.mux().stats(),
                cluster.totalStats(), em.nowTick()};
  };

  // Traced per-round accounting.
  std::vector<double> applyRoundUs;
  std::vector<double> otherRoundUs;
  std::vector<double> encodeUs;
  std::vector<double> decodeUs;
  std::vector<double> payloadBytes;
  std::vector<double> tsBuildUs;
  std::vector<double> bsBuildUs;
  double roundCpuS = 0;
  double applyCpuS = 0;
  std::uint64_t rounds = 0;

  const double warmEnd = wallNow() + spec.warmupS;
  double windowStart = 0;
  double windowEnd = 0;
  Snap s0;
  bool open = false;
  for (;;) {
    const double now = wallNow();
    if (!open && now >= warmEnd) {
      open = true;
      ir.openWindow();
      s0 = snap();
      windowStart = s0.wall;
      windowEnd = windowStart + args.seconds;
    }
    if (open && now >= windowEnd) break;
    const std::uint64_t fetches0 = em.mux().stats().fetchesSent;
    const std::uint64_t data0 = em.mux().stats().dataItems;
    const double cpu0 = tracer.on() ? threadCpuNow() : 0;
    const double r0 = tracer.on() ? wallNow() : 0;
    reactor.runOnce(100);
    const double cpu1 = tracer.on() ? threadCpuNow() : 0;
    const double r1 = tracer.on() ? wallNow() : 0;
    const std::uint64_t nowTick = clock.nowTick();

    bool broadcast = false;
    const std::uint32_t shards = cluster.shardCount();
    prevBroadcast.resize(shards, 0);
    prevDatagrams.resize(shards, 0);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const live::ServerStats& ss = cluster.server(s).stats();
      const bool sent = ss.reportsBroadcast != prevBroadcast[s];
      const bool toSwarm = ss.udpDatagramsSent != prevDatagrams[s];
      prevBroadcast[s] = ss.reportsBroadcast;
      prevDatagrams[s] = ss.udpDatagramsSent;
      if (!sent) continue;
      broadcast = true;
      const std::vector<std::uint8_t>& payload =
          cluster.server(s).lastReportPayload();
      report::ReportPtr decoded;
      std::uint64_t tick = 0;
      const double us = 1e6 * timed(tracer, "report.decode", -1, [&] {
        tick = reportTick(codec, payload, tracer.on() ? &decoded : nullptr);
      });
      if (toSwarm) ir.onBroadcast(s, tick);
      if (!tracer.on() || !open || !decoded) continue;
      decodeUs.push_back(us);
      payloadBytes.push_back(static_cast<double>(payload.size()));
      // Updates may have landed after the broadcast within this round; a
      // report is built as of a time no earlier than the newest of them.
      const db::UpdateHistory& history = cluster.server(s).history();
      const sim::SimTime t =
          std::max(decoded->broadcastTime, history.lastUpdateTime());
      if (const auto* ts = dynamic_cast<const report::TsReport*>(decoded.get())) {
        encodeUs.push_back(1e6 * timed(tracer, "report.encode", -1,
                                       [&] { (void)codec.encode(*ts); }));
      } else if (const auto* bs =
                     dynamic_cast<const report::BsReport*>(decoded.get())) {
        encodeUs.push_back(1e6 * timed(tracer, "report.encode", -1,
                                       [&] { (void)codec.encode(*bs); }));
      }
      tsBuildUs.push_back(1e6 * timed(tracer, "report.ts_build", -1, [&] {
                            (void)report::TsReport::build(
                                history, sizes, t,
                                t - cfg.windowIntervals * cfg.broadcastPeriod);
                          }));
      bsBuildUs.push_back(1e6 * timed(tracer, "report.bs_build", -1, [&] {
                            (void)report::BsReport::build(history, sizes, t);
                          }));
    }
    const std::uint64_t processed = em.stats().reportsProcessed;
    ir.onRound(processed - prevProcessed, em.nowTick(), nowTick);

    if (tracer.on() && open) {
      const char* tag = "live.round.other";
      const double cpu = cpu1 - cpu0;
      if (processed != prevProcessed) {
        tag = "live.round.apply";
        applyRoundUs.push_back(cpu * 1e6);
        applyCpuS += cpu;
      } else {
        if (broadcast) {
          tag = "live.round.broadcast";
        } else if (em.mux().stats().fetchesSent != fetches0 ||
                   em.mux().stats().dataItems != data0) {
          tag = "live.round.uplink";
        }
        otherRoundUs.push_back(cpu * 1e6);
      }
      tracer.add(tag, -1, r0, r1, cpu);
      roundCpuS += cpu;
      ++rounds;
    }
    prevProcessed = processed;
  }
  ir.closeWindow(clock.nowTick());
  const Snap s1 = snap();

  const double wall = s1.wall - s0.wall;
  const double cpu = s1.cpu.total() - s0.cpu.total();
  const double modelS =
      live::LiveClock::tickToTime(s1.heardTick) - live::LiveClock::tickToTime(s0.heardTick);
  const std::uint64_t ticks = s1.sw.clientTicks - s0.sw.clientTicks;
  const std::uint64_t hits = s1.sw.cacheHits - s0.sw.cacheHits;
  const std::uint64_t missesC = s1.sw.cacheMisses - s0.sw.cacheMisses;
  const std::vector<double>& lags = ir.lagsMs();
  const auto tail = perfbench::highestSupportedPercentile(lags.size());
  const metrics::Hist latency = em.latencyHistMs();
  const auto latTail = perfbench::highestSupportedPercentile(latency.count());

  res.attempted = ir.due();
  res.failed = ir.missed();
  res.check(ir.missed() == 0,
            "IR misses: " + std::to_string(ir.missed()) + " of " +
                std::to_string(ir.due()) + " reports not applied within L");
  res.check(lags.size() >= 100,
            "only " + std::to_string(lags.size()) + " reports applied (need 100)");
  res.check(tail && *tail >= 90, "too few IR samples for a p90");
  res.check(latTail && *latTail >= 99, "too few queries for a p99");
  res.check(s1.sw.staleReads == 0, "swarm audit found stale reads");
  res.check(cluster.staleReads() == 0, "cluster audit found stale reads");
  res.check(s1.mux.connectionsLost == 0, "mux lost a connection");
  res.check(s1.mux.badFrames == 0, "mux saw bad frames");
  res.check(s1.server.handoffFailures == 0, "reshard handoff failed");
  res.check(s1.server.framesDropped == 0, "server dropped frames");
  res.check(s1.server.udpSendFailures == 0, "server UDP sends failed");
  res.check(ticks > 0 && s1.sw.queriesCompleted > s0.sw.queriesCompleted,
            "no swarm progress in the window");

  res.e2e = {{"setup_s", median(setups)},
             {"peak_rss_mb", 0},
             {"sim_s_per_wall_s", modelS / wall},
             {"sim_s_per_cpu_s", modelS / cpu},
             {"lag_p50_ms", percentile(lags, 50)},
             {"hit_ratio", static_cast<double>(hits) /
                               static_cast<double>(std::max<std::uint64_t>(1, hits + missesC))}};
  res.info = {
      {"clients", spec.clients},
      {"shards", spec.shards},
      {"time_scale", spec.timeScale},
      {"window_wall_s", wall},
      {"work_units", static_cast<double>(ticks)},
      {"work_cpu_s", cpu},
      {"client_ticks_per_cpu_s", static_cast<double>(ticks) / cpu},
      {"ir_lag_p50_ms", percentile(lags, 50)},
      {"ir_lag_p90_ms", percentile(lags, 90)},
      {"ir_miss_frac", ir.due() ? static_cast<double>(ir.missed()) / ir.due() : 0},
      {"ir_reports_applied", static_cast<double>(lags.size())},
      {"query_latency_p50_ms", static_cast<double>(latency.pct(50))},
      {"query_latency_p99_ms", static_cast<double>(latency.pct(99))},
      {"queries", static_cast<double>(latency.count())},
      {"hit_ratio_run", em.stats().hitRatio()},
  };

  if (tracer.on()) {
    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b);
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    res.layers = {
        {"report.encode_us_p50", percentile(encodeUs, 50)},
        {"report.decode_us_p50", percentile(decodeUs, 50)},
        {"report.payload_bytes_p50", percentile(payloadBytes, 50)},
        {"report.ts_build_us_p50", percentile(tsBuildUs, 50)},
        {"report.bs_build_us_p50", percentile(bsBuildUs, 50)},
        {"server.reports_broadcast", d(s1.server.reportsBroadcast, s0.server.reportsBroadcast)},
        {"server.updates_applied", d(s1.server.updatesApplied, s0.server.updatesApplied)},
        {"server.query_requests", d(s1.server.queryRequests, s0.server.queryRequests)},
        {"server.checks_received", d(s1.server.checksReceived, s0.server.checksReceived)},
        {"server.udp_syscalls_per_tick",
         ratio(d(s1.server.udpSendSyscalls, s0.server.udpSendSyscalls),
               d(s1.server.reportsBroadcast, s0.server.reportsBroadcast))},
        {"server.frames_dropped", static_cast<double>(s1.server.framesDropped)},
        {"server.udp_send_failures", static_cast<double>(s1.server.udpSendFailures)},
        {"server.handoff_failures", static_cast<double>(s1.server.handoffFailures)},
        {"reactor.rounds", static_cast<double>(rounds)},
        {"reactor.apply_round_us_p50", percentile(applyRoundUs, 50)},
        {"reactor.apply_round_us_p90", percentile(applyRoundUs, 90)},
        {"reactor.other_round_us_p50", percentile(otherRoundUs, 50)},
        {"reactor.busy_frac", roundCpuS / wall},
        {"live.sys_cpu_frac", ratio(s1.cpu.sys - s0.cpu.sys, cpu)},
        {"swarm.client_ticks", static_cast<double>(ticks)},
        {"swarm.client_ticks_per_cpu_s", ratio(static_cast<double>(ticks), cpu)},
        {"swarm.ns_per_client_tick", ratio(applyCpuS * 1e9, static_cast<double>(ticks))},
        {"swarm.allocs_per_client_tick",
         ratio(d(s1.mux.hotAllocs, s0.mux.hotAllocs), static_cast<double>(ticks))},
        {"swarm.mem_bytes_per_client", ratio(static_cast<double>(em.memoryBytes()), spec.clients)},
        {"swarm.dozes", d(s1.sw.dozes, s0.sw.dozes)},
        {"swarm.bs_reports", d(s1.sw.bsReports, s0.sw.bsReports)},
        {"swarm.extended_reports", d(s1.sw.extendedReports, s0.sw.extendedReports)},
        {"swarm.late_fetches_dropped", d(s1.sw.lateFetchesDropped, s0.sw.lateFetchesDropped)},
        {"swarm.query_latency_p50_ms", static_cast<double>(latency.pct(50))},
        {"swarm.query_latency_p99_ms", static_cast<double>(latency.pct(99))},
        {"mux.fetches", d(s1.mux.fetchesSent, s0.mux.fetchesSent)},
        {"mux.fetches_per_frame",
         ratio(d(s1.mux.fetchesSent, s0.mux.fetchesSent),
               d(s1.mux.queryFramesSent, s0.mux.queryFramesSent))},
        {"mux.checks", d(s1.mux.checksSent, s0.mux.checksSent)},
        {"mux.udp_recv_syscalls_per_report",
         ratio(d(s1.mux.udpRecvSyscalls, s0.mux.udpRecvSyscalls),
               d(s1.mux.reportsHeard, s0.mux.reportsHeard))},
        {"mux.bad_frames", static_cast<double>(s1.mux.badFrames)},
        {"mux.connections_lost", static_cast<double>(s1.mux.connectionsLost)},
        {"ir.lag_p50_ms", percentile(lags, 50)},
        {"ir.lag_p90_ms", percentile(lags, 90)},
        {"ir.miss_frac", ir.due() ? static_cast<double>(ir.missed()) / ir.due() : 0},
        {"attributed_cpu_frac", tracer.attributedFrac(windowStart, s1.wall, cpu)},
    };
  }
  teardown(*st);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli(argc, argv);
  Args args;
  args.workload = cli.getStr("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.getInt("seed", 1));
  args.seconds = cli.getDouble("seconds", 30);
  args.goldens = cli.getStr("goldens", "results");
  args.traceOut = cli.getStr("trace-out", "");
  for (const auto& unknown : cli.unknownArgs()) {
    std::fprintf(stderr, "perfbench: unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  const bool traced = perfbench::kAllocProbe != nullptr;
  if (!traced && !args.traceOut.empty()) {
    std::fprintf(stderr, "perfbench: --trace-out needs the traced build\n");
    return 2;
  }
  Tracer tracer(traced);
  const double origin = wallNow();
  Result res;
  if (args.workload == "paper_figures") {
    res = runPaperFigures(args, tracer);
  } else if (args.workload == "swarm_steady" || args.workload == "swarm_churn") {
    res = runSwarm(args, tracer);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  for (auto& [name, value] : res.e2e) {
    if (name == "peak_rss_mb") value = peakRssMb();
  }
  if (!args.traceOut.empty() && !tracer.write(args.traceOut, origin)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.traceOut.c_str());
    return 1;
  }
  printResult(args.workload, res);
  return res.correct ? 0 : 1;
}
