#include "schemes/scheme.hpp"

namespace mci::schemes {

ClientContext::ClientContext(ClientId id, std::size_t cacheCapacity,
                             const report::SizeModel& sizes,
                             sim::Simulator& simulator, CacheEventSink* sink,
                             cache::ReplacementPolicy replacement)
    : id_(id),
      cache_(cacheCapacity, replacement, 0x9E3779B9u + id),
      sizes_(sizes),
      sim_(simulator),
      sink_(sink) {}

void ClientContext::invalidate(cache::Entry* e) {
  if (sink_) sink_->onInvalidate(id_, e->item, e->version, sim_.now());
  cache_.erase(e->item);
}

void ClientContext::invalidate(db::ItemId item) {
  if (cache::Entry* e = cache_.find(item)) invalidate(e);
}

void ClientContext::insert(db::ItemId item, db::Version version,
                           sim::SimTime refTime) {
  cache_.insert(cache::Entry{item, version, refTime, /*suspect=*/false});
}

std::size_t ClientContext::dropAll() {
  const std::size_t n = cache_.size();
  if (n > 0 && sink_) sink_->onCacheDrop(id_, n, sim_.now());
  cache_.clear();
  return n;
}

std::size_t ClientContext::markAllSuspect(sim::SimTime preGapTlb) {
  suspectAsOf_ = preGapTlb;
  return cache_.markAllSuspect();
}

std::size_t ClientContext::dropSuspects() {
  const std::size_t n = cache_.dropSuspects();
  if (n > 0 && sink_) sink_->onCacheDrop(id_, n, sim_.now());
  return n;
}

std::size_t ClientContext::salvageAllSuspects(sim::SimTime refTime) {
  const std::size_t n = cache_.salvageSuspects(refTime);
  if (n > 0 && sink_) sink_->onSalvage(id_, n, sim_.now());
  return n;
}

void ClientContext::clearGapState() {
  salvagePending_ = false;
  checkSent_ = false;
  checkDeliveredAt_ = sim::kTimeInfinity;
  suspectAsOf_ = sim::kTimeEpoch;
  ++checkEpoch_;
}

void ClientScheme::onValidityReply(const ValidityReply& /*reply*/,
                                   ClientContext& /*ctx*/) {}

void ClientScheme::onCheckDelivered(ClientContext& ctx, sim::SimTime now) {
  ctx.setCheckDeliveredAt(now);
}

void ClientContext::restartGapCycle() {
  salvagePending_ = cache_.suspectCount() > 0;
  checkSent_ = false;
  checkDeliveredAt_ = sim::kTimeInfinity;
  ++checkEpoch_;  // a reply to the pre-doze check must be ignored
}

void ClientScheme::onWake(ClientContext& ctx, sim::SimTime /*now*/) {
  core::adaptive::onWake(ctx);
}

}  // namespace mci::schemes
