#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <optional>

#include "core/annotations.hpp"
#include "db/item.hpp"
#include "report/bs_report.hpp"
#include "sim/time.hpp"

/// The adaptive client's per-partition rules (Figures 3/4), written once:
/// the simulator and every live::ClientAgent link run them over a
/// schemes::ClientContext (double SimTime, exact LRU, metric events), the
/// swarm over a swarm::SwarmPartition (integer ms ticks, CLOCK slots).
///
/// Sans-IO: nothing here sends, schedules or allocates. A wanted Tlb
/// uplink comes back as an intent; the driver calls commitCheck() once the
/// check has actually gone out, else the next uncovered report asks again.
namespace mci::core::adaptive {

/// What the rules need of a partition. `Time` is its clock, Time{0} being
/// the epoch; `find` returns a handle that tests false when not cached.
template <class P>
concept Partition = requires(P& p, typename P::Time t, db::ItemId item,
                             db::Version version) {
  { P::simTime(t) } -> std::convertible_to<sim::SimTime>;
  { p.lastHeard() } -> std::convertible_to<typename P::Time>;
  { p.suspectAsOf() } -> std::convertible_to<typename P::Time>;
  { p.checkDeliveredAt() } -> std::convertible_to<typename P::Time>;
  { p.suspectCount() } -> std::convertible_to<std::size_t>;
  { p.checkSent() } -> std::convertible_to<bool>;
  { p.refTime(p.find(item)) } -> std::convertible_to<typename P::Time>;
  p.setLastHeard(t);
  p.setCheckSent(true);
  p.setSalvagePending(true);
  p.invalidate(p.find(item));
  p.insert(item, version, t);
  p.markAllSuspect(t);  // also records t as suspectAsOf
  p.salvageAllSuspects(t);
  p.dropSuspects();
  p.dropAll();
  p.clearGapState();    // no gap, nothing pending, suspectAsOf = epoch
  p.restartGapCycle();  // suspects kept; any in-flight check void
};

/// TS records: a listed (o, t) with t newer than the cached copy's refTime
/// is stale, suspects included.
template <Partition P, class Records>
MCI_HOT inline void applyTsEntries(P& p, const Records& records) {
  for (const auto& rec : records) {
    const auto h = p.find(rec.item);
    if (h && rec.time > p.refTime(h)) p.invalidate(h);
  }
}

/// BS decision from `tlb`. Wire-faithful: a marked item is invalidated
/// whatever its refTime, because the bits carry no per-item timestamps.
template <Partition P>
inline void applyBsDecision(P& p, const report::BsReport& bs,
                            typename P::Time tlb) {
  const report::BsReport::Decision d = bs.decide(P::simTime(tlb));
  if (d.action == report::BsReport::Action::kDropAll) {
    p.dropAll();
  } else if (d.action == report::BsReport::Action::kInvalidateSet) {
    for (const db::UpdateRecord& rec : d.marked) {
      if (const auto h = p.find(rec.item)) p.invalidate(h);
    }
  }
}

/// IR(w), or AAW's IR(w') whose dummy record moves `coverageStart` back:
/// one coverage test handles both. Returns the check intent: the pre-gap
/// Tlb to uplink ("not yet sent Tlb to server"), if any.
template <Partition P, class Records>
[[nodiscard]] MCI_HOT inline std::optional<typename P::Time> onTsReport(
    P& p, typename P::Time now, typename P::Time coverageStart,
    const Records& records) {
  std::optional<typename P::Time> intent;
  if (p.suspectCount() == 0) {
    if (p.lastHeard() >= coverageStart) {
      applyTsEntries(p, records);
      p.setLastHeard(now);
      return intent;
    }
    // Gap detected: everything cached becomes suspect as of lastHeard.
    p.markAllSuspect(p.lastHeard());
    if (p.suspectCount() == 0) {
      // Empty cache: nothing to salvage, no reason to bother the uplink.
      applyTsEntries(p, records);
      p.clearGapState();
      p.setLastHeard(now);
      return intent;
    }
  }
  applyTsEntries(p, records);
  if (p.suspectAsOf() >= coverageStart) {
    // The window reaches back past the gap: every update since was listed,
    // so the remaining suspects are clean.
    p.salvageAllSuspects(now);
    p.clearGapState();
  } else if (!p.checkSent()) {
    // First uncovered report after the gap: uplink the pre-gap Tlb once.
    intent = p.suspectAsOf();
  } else if (p.checkDeliveredAt() < now) {
    // Built by a server that had our Tlb and still no help: the gap
    // predates TS(B_n), the explicit decline. Drop the suspects.
    p.dropSuspects();
    p.clearGapState();
  }  // else: the Tlb is still in flight; keep waiting.
  p.setLastHeard(now);
  return intent;
}

/// The driver transmitted the Tlb an onTsReport intent asked for.
template <Partition P>
inline void commitCheck(P& p) {
  p.setCheckSent(true);
  p.setSalvagePending(true);
}

/// A helping IR(BS): run the BS algorithm from the pre-gap Tlb, not merely
/// from the last uncovering report; survivors were provably not updated
/// since the chosen level, hence are current as of this report.
template <Partition P>
inline void onBsReport(P& p, typename P::Time now,
                       const report::BsReport& bs) {
  const bool hadSuspects = p.suspectCount() > 0;
  applyBsDecision(p, bs, hadSuspects ? p.suspectAsOf() : p.lastHeard());
  if (p.suspectCount() > 0) p.salvageAllSuspects(now);
  p.clearGapState();
  p.setLastHeard(now);
}

/// Woke from a doze: a salvage in flight may have lost its check or
/// helping report, so suspects restart the cycle from the same
/// suspectAsOf; a partition without suspects just forgets the gap.
template <Partition P>
inline void onWake(P& p) {
  if (p.suspectCount() > 0) {
    p.restartGapCycle();
  } else {
    p.clearGapState();
  }
}

/// Caches a fetched copy only if the server read it no earlier than
/// lastHeard. Replies and reports are unordered: a report applied while
/// the fetch was out may have listed an update for the then-absent item,
/// so an older copy cannot be trusted. Returns whether it was cached.
template <Partition P>
inline bool acceptFetchedCopy(P& p, db::ItemId item, db::Version version,
                              typename P::Time readTime,
                              typename P::Time refTime) {
  if (readTime < p.lastHeard()) return false;
  p.insert(item, version, refTime);
  return true;
}

/// The reshard's pre-flip anchor: the oldest instant any partition
/// `forEachPartition(visit)` visits is provably consistent at (lastHeard,
/// or an open gap's older suspectAsOf); Time{0} with none. A new-owner
/// report after it lists every update a migrated copy could have missed.
template <class Time, class ForEach>
[[nodiscard]] Time preFlipAnchor(ForEach&& forEachPartition) {
  bool any = false;
  Time anchor{};
  forEachPartition([&](const auto& p) {
    Time t = p.lastHeard();
    if (p.suspectCount() > 0) t = std::min<Time>(t, p.suspectAsOf());
    anchor = any ? std::min(anchor, t) : t;
    any = true;
  });
  return anchor;
}

/// A partition holding migrated copies after an epoch switch: the whole
/// cache turns suspect as of the anchor and runs an ordinary gap cycle,
/// exactly like a doze that started there.
template <Partition P>
inline void adoptAtAnchor(P& p, typename P::Time anchor) {
  p.markAllSuspect(anchor);
  onWake(p);
}

}  // namespace mci::core::adaptive
