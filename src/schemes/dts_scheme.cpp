#include "schemes/dts_scheme.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "report/ts_report.hpp"

namespace mci::schemes {

DtsServerScheme::DtsServerScheme(const db::UpdateHistory& history,
                                 const db::Database& db,
                                 const report::SizeModel& sizes,
                                 double broadcastPeriod, Params params)
    : history_(history),
      db_(db),
      sizes_(sizes),
      period_(broadcastPeriod),
      params_(params) {
  assert(params_.minWindow >= 1);
  assert(params_.maxWindow >= params_.minWindow);
  assert(params_.alpha > 0);
}

int DtsServerScheme::windowFor(db::ItemId item, sim::SimTime now) const {
  if (now <= 0) return params_.maxWindow;
  const double rate =
      static_cast<double>(db_.currentVersion(item)) / now;  // updates/second
  if (rate <= 0) return params_.maxWindow;
  const double intervals = params_.alpha / (rate * period_);
  return std::clamp(static_cast<int>(intervals), params_.minWindow,
                    params_.maxWindow);
}

report::ReportPtr DtsServerScheme::buildReport(sim::SimTime now) {
  // Candidates: everything inside the widest possible window; each item is
  // then kept only while inside its own window.
  const sim::SimTime widest =
      std::max(sim::kTimeEpoch, now - params_.maxWindow * period_);
  candidateScratch_.clear();
  history_.updatesAfter(widest, candidateScratch_);
  std::vector<db::UpdateRecord> kept;  // moved into the report below
  kept.reserve(candidateScratch_.size());
  for (const db::UpdateRecord& rec : candidateScratch_) {
    const double wStart = now - windowFor(rec.item, now) * period_;
    if (rec.time > wStart) kept.push_back(rec);
  }
  // Repackage as a TS window report whose guaranteed coverage is the
  // minWindow floor: a client inside it can run the plain TS algorithm.
  const sim::SimTime floorStart =
      std::max(sim::kTimeEpoch, now - params_.minWindow * period_);
  return report::TsReport::buildFromEntries(sizes_, now, floorStart,
                                            std::move(kept));
}

std::optional<ValidityReply> DtsServerScheme::onCheckMessage(
    const CheckMessage& /*msg*/, sim::SimTime /*now*/) {
  return std::nullopt;  // DTS is pure broadcast
}

ClientOutcome DtsClientScheme::onReport(const report::Report& r,
                                        ClientContext& ctx) {
  assert(r.kind == report::ReportKind::kTsWindow);
  const auto& ts = static_cast<const report::TsReport&>(r);

  // Listed records always apply (stale proofs).
  core::adaptive::applyTsEntries(ctx, ts.entries());

  if (!ts.covers(ctx.lastHeard())) {
    // Beyond the guaranteed floor: survivors must prove their currency by
    // being listed (their last update is in the report, and applyTsEntries
    // already removed the ones where that update postdates the copy).
    std::unordered_map<db::ItemId, sim::SimTime>& listed = listedScratch_;
    listed.clear();  // keeps the bucket array across reports
    listed.reserve(ts.entries().size());
    for (const db::UpdateRecord& rec : ts.entries()) {
      listed.emplace(rec.item, rec.time);
    }
    std::vector<db::ItemId>& undecidable = undecidableScratch_;
    undecidable.clear();
    ctx.cache().forEach([&](const cache::Entry& e) {
      auto it = listed.find(e.item);
      if (it == listed.end()) {
        undecidable.push_back(e.item);
      }
    });
    for (db::ItemId item : undecidable) ctx.invalidate(item);
    // Survivors are provably current as of this report.
    ctx.cache().forEach([&](cache::Entry& e) { e.refTime = r.broadcastTime; });
  }
  ctx.setLastHeard(r.broadcastTime);
  return {};
}

}  // namespace mci::schemes
