#pragma once

// Helpers of the repository benchmark that carry its measurement rules:
// percentile selection, the invalidation-report (IR) lag and miss
// accounting against the cluster's LiveClock, and the golden-figure
// comparison. Header-only so selftest.cpp can pin each rule.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples: n - ceil(p/100 * n).
inline std::size_t samplesBeyond(std::size_t n, double p) {
  // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

/// The highest percentile of `ladder` (ascending) that still has at least
/// `minBeyond` samples beyond it; nullopt when even the lowest has not.
/// A tail figure resting on fewer samples is one outlier, not a tail.
inline std::optional<double> highestSupportedPercentile(
    std::size_t n, const std::vector<double>& ladder = {50, 90, 99, 99.9},
    std::size_t minBeyond = 10) {
  std::optional<double> best;
  for (const double p : ladder) {
    if (samplesBeyond(n, p) >= minBeyond) best = p;
  }
  return best;
}

/// Nearest-rank percentile (0 < p <= 100) of an unsorted sample; 0 when
/// empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Wall milliseconds between the instant a LiveClock running at
/// `timeScale` model seconds per wall second read `dueTick` and the
/// instant it read `nowTick` (both model milliseconds). Negative when
/// `nowTick` precedes the due instant.
inline double lagWallMs(std::uint64_t nowTick, std::uint64_t dueTick,
                        double timeScale) {
  return (static_cast<double>(nowTick) - static_cast<double>(dueTick)) /
         timeScale;
}

/// Matches the reports a cluster broadcast to the reports the swarm
/// applied, and turns the match into IR lag samples and misses.
///
/// Feed it once per reactor round, in this order: onBroadcast() for each
/// shard whose report went out to the swarm during the round, then
/// onRound() with how many reports the swarm applied during the round and
/// the newest model tick it has heard. Pending reports are kept sorted by
/// stamped tick; the `applied` newest pending reports at or below the
/// newest tick heard are the ones applied (one socket per shard delivers
/// in order).
///
/// A report falls due at its slot on the shard's broadcast grid, not at
/// the tick it was stamped with: a timer that fired late because the
/// reactor was busy is lag too. Each shard's IR timer fires on a fixed
/// grid, and most stamps sit just after their slot, so closeWindow() takes
/// a low quantile of the stamps' offsets within the period as the grid's
/// phase. A report is missed when it is applied more than one period after
/// falling due or never, and so is a slot a shard skipped. Only reports
/// stamped while the window is open are counted.
class IrTracker {
 public:
  IrTracker(double timeScale, double periodSeconds)
      : scale_(timeScale),
        periodTicks_(static_cast<std::uint64_t>(std::llround(periodSeconds * 1000.0))) {}

  void openWindow() { open_ = true; }

  void onBroadcast(std::uint32_t shard, std::uint64_t tick) {
    const std::size_t id = reports_.size();
    reports_.push_back(Report{shard, tick, open_, false, 0});
    auto it = pending_.end();
    while (it != pending_.begin() && reports_[*std::prev(it)].tick > tick) --it;
    pending_.insert(it, id);
  }

  void onRound(std::uint64_t applied, std::uint64_t newestHeardTick,
               std::uint64_t nowTick) {
    auto end = pending_.begin();
    while (end != pending_.end() && reports_[*end].tick <= newestHeardTick) ++end;
    auto begin = end;
    for (; applied > 0 && begin != pending_.begin(); --applied) --begin;
    for (auto it = begin; it != end; ++it) {
      reports_[*it].applied = true;
      reports_[*it].appliedAt = nowTick;
    }
    pending_.erase(begin, end);
    // Reports two periods past their stamp are not coming any more.
    while (!pending_.empty() &&
           nowTick > reports_[pending_.front()].tick + 2 * periodTicks_) {
      pending_.pop_front();
    }
  }

  /// Ends the window at `nowTick` and settles every counted report. Those
  /// still pending and not yet a period past due leave the denominator.
  void closeWindow(std::uint64_t nowTick) {
    open_ = false;
    std::map<std::uint32_t, std::vector<std::uint64_t>> stamps;
    for (const Report& r : reports_) stamps[r.shard].push_back(r.tick);
    for (const auto& [shard, ticks] : stamps) {
      const std::uint64_t phase = gridPhase(ticks);
      std::optional<std::uint64_t> lastSlot;
      for (const Report& r : reports_) {
        if (r.shard != shard) continue;
        const std::uint64_t s = (r.tick + periodTicks_ - phase + periodTicks_ / 10) / periodTicks_;
        const std::uint64_t dueTick = s * periodTicks_ + phase - periodTicks_;
        if (r.counted && lastSlot && s > *lastSlot + 1) {
          due_ += s - *lastSlot - 1;  // slots the stalled timer skipped
          missed_ += s - *lastSlot - 1;
        }
        lastSlot = std::max(lastSlot.value_or(0), s);
        if (!r.counted) continue;
        if (r.applied) {
          ++due_;
          lagsMs_.push_back(lagWallMs(r.appliedAt, dueTick, scale_));
          if (r.appliedAt > dueTick + periodTicks_) ++missed_;
        } else if (nowTick > dueTick + periodTicks_) {
          ++due_;
          ++missed_;
        }
      }
    }
  }

  /// Counted reports: applied, missed or skipped (valid after close).
  [[nodiscard]] std::uint64_t due() const { return due_; }
  /// Counted reports not applied within one period of falling due.
  [[nodiscard]] std::uint64_t missed() const { return missed_; }
  [[nodiscard]] const std::vector<double>& lagsMs() const { return lagsMs_; }

 private:
  struct Report {
    std::uint32_t shard = 0;
    std::uint64_t tick = 0;  ///< stamped broadcast tick
    bool counted = false;
    bool applied = false;
    std::uint64_t appliedAt = 0;  ///< clock tick at the end of that round
  };

  /// The grid's offset within the period: the 10th percentile of the
  /// stamps' offsets, measured around their median so a grid near the
  /// period boundary does not wrap.
  [[nodiscard]] std::uint64_t gridPhase(const std::vector<std::uint64_t>& ticks) const {
    const auto p = static_cast<double>(periodTicks_);
    std::vector<double> offsets;
    for (const std::uint64_t t : ticks) offsets.push_back(static_cast<double>(t % periodTicks_));
    const double ref = median(offsets);
    std::vector<double> around;
    for (const double o : offsets) {
      around.push_back(std::fmod(o - ref + 1.5 * p, p) - 0.5 * p);
    }
    const double phase = std::fmod(ref + percentile(around, 10) + p, p);
    return static_cast<std::uint64_t>(phase);
  }

  double scale_;
  std::uint64_t periodTicks_;
  bool open_ = false;
  std::vector<Report> reports_;
  std::deque<std::size_t> pending_;  ///< indices into reports_, by tick
  std::uint64_t due_ = 0;
  std::uint64_t missed_ = 0;
  std::vector<double> lagsMs_;
};

inline std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Byte-for-byte comparison of a produced figure CSV against its golden
/// copy. Empty when identical; otherwise says where they first differ.
inline std::string compareGolden(const std::string& produced,
                                 const std::string& golden) {
  if (produced == golden) return {};
  std::size_t line = 1;
  std::size_t i = 0;
  while (i < produced.size() && i < golden.size() && produced[i] == golden[i]) {
    if (produced[i] == '\n') ++line;
    ++i;
  }
  std::ostringstream msg;
  msg << "differs at line " << line << " (byte " << i << "; produced "
      << produced.size() << " bytes, golden " << golden.size() << ")";
  return msg.str();
}

}  // namespace perfbench
