#include "core/client.hpp"

#include <algorithm>
#include <cassert>

#include "core/check.hpp"
#include "core/server.hpp"

namespace mci::core {

Client::Client(sim::Simulator& simulator, net::Network& network, Server& server,
               const report::SizeModel& sizes,
               std::unique_ptr<schemes::ClientScheme> scheme,
               workload::QueryGenerator queryGen,
               workload::Disconnector disconnector,
               metrics::Collector* collector, schemes::ClientId id,
               std::size_t cacheCapacity, cache::ReplacementPolicy replacement)
    : sim_(simulator),
      net_(network),
      server_(server),
      scheme_(std::move(scheme)),
      queryGen_(std::move(queryGen)),
      disc_(disconnector),
      collector_(collector),
      ctx_(id, cacheCapacity, sizes, simulator, collector, replacement) {
  assert(scheme_ != nullptr);
}

void Client::start() { startThink(queryGen_.thinkTime()); }

void Client::startThink(double duration) {
  state_ = State::kThinking;
  thinkDeadline_ = sim_.now() + duration;
  thinkEvent_ = sim_.schedule(duration, [this] {
    thinkEvent_ = sim::kInvalidEventId;
    issueQuery();
  });
}

void Client::issueQuery() {
  queryGen_.nextQuery(queryItems_);
  queryStart_ = sim_.now();
  state_ = State::kAwaitingReport;
}

void Client::onReportDelivered(const report::ReportPtr& r) {
  if (!connected_) return;
  if (collector_) collector_->onClientRx(r->sizeBits);  // listening costs
  const schemes::ClientOutcome outcome = scheme_->onReport(*r, ctx_);
  if (outcome.sendCheck) sendCheck(outcome.check);

  if (state_ == State::kAwaitingReport || state_ == State::kAwaitingSalvage) {
    maybeAnswerQuery();
  } else if (state_ == State::kThinking &&
             disc_.params().model == workload::DisconnectModel::kIntervalCoin &&
             disc_.shouldDisconnect()) {
    beginDoze(/*queryAfterWake=*/false);
  }
}

void Client::sendCheck(const schemes::CheckMessage& msg) {
  if (collector_) {
    collector_->onCheckSent();
    collector_->onClientTx(msg.sizeBits);
  }
  // Init-capture: a plain `msg` copy-capture would give the closure a
  // *const* CheckMessage member (msg is a const&), whose "move" is a
  // reallocating copy — too big a closure for the inline callback storage.
  net_.uplink().sendCheck(msg.sizeBits, [this, msg = msg] {
    // Delivery instant: the scheme learns its feedback has landed (for the
    // decline-detection rule) and the server absorbs it.
    scheme_->onCheckDelivered(ctx_, sim_.now());
    server_.onCheckMessage(msg);
  });
}

void Client::maybeAnswerQuery() {
  assert(state_ == State::kAwaitingReport || state_ == State::kAwaitingSalvage);
  if (ctx_.salvagePending()) {
    state_ = State::kAwaitingSalvage;
    return;
  }
  pendingFetch_.clear();
  for (db::ItemId item : queryItems_) {
    cache::Entry* e = ctx_.cache().find(item);
    if (e != nullptr && !e->suspect) {
      ctx_.cache().touch(item);
      if (collector_) {
        collector_->onCacheAnswer(ctx_.id(), item, e->version, ctx_.lastHeard());
      }
    } else {
      if (collector_) collector_->onCacheMiss(ctx_.id());
      pendingFetch_.push_back(item);
    }
  }
  if (pendingFetch_.empty()) {
    completeQuery();
    return;
  }
  state_ = State::kFetching;
  if (collector_) collector_->onClientTx(ctx_.sizes().queryRequestBits());
  // pendingFetch_ is stable until this request's delivery callback runs:
  // onDataItem (the only mutator) fires only for items the server was
  // already asked for, and the server learns of this query exactly here.
  net_.uplink().sendRequest(
      ctx_.sizes().queryRequestBits(),
      [this] { server_.onQueryRequest(ctx_.id(), pendingFetch_); });
}

void Client::onDataItem(db::ItemId item, db::Version version,
                        sim::SimTime readTime) {
  assert(connected_ && "clients never doze with downloads in flight");
  if (collector_) collector_->onClientRx(ctx_.sizes().dataItemBits());
  cache::Entry entry;
  entry.item = item;
  entry.version = version;
  entry.refTime = readTime;
  entry.suspect = false;
  ctx_.cache().insert(entry);

  auto it = std::find(pendingFetch_.begin(), pendingFetch_.end(), item);
  if (it != pendingFetch_.end()) pendingFetch_.erase(it);
  if (state_ == State::kFetching && pendingFetch_.empty()) completeQuery();
}

void Client::completeQuery() {
  if (collector_) collector_->onQueryCompleted(ctx_.id(), sim_.now() - queryStart_);
  ++completed_;
  queryItems_.clear();
  if (disc_.params().model == workload::DisconnectModel::kPostQuery &&
      disc_.shouldDisconnect()) {
    beginDoze(/*queryAfterWake=*/true);
  } else {
    startThink(queryGen_.thinkTime());
  }
}

void Client::beginDoze(bool queryAfterWake) {
  // The post-query model dozes straight out of completeQuery(), while the
  // query is still winding down; the interval coin only ever interrupts a
  // think.
  assert(queryAfterWake ? state_ != State::kDozing
                        : state_ == State::kThinking);
  if (thinkEvent_ != sim::kInvalidEventId) {
    // The think handler clears thinkEvent_ before running, so a live id
    // always names a pending event.
    MCI_CHECK(sim_.cancel(thinkEvent_)) << "think event already fired";
    thinkEvent_ = sim::kInvalidEventId;
  }
  connected_ = false;
  state_ = State::kDozing;
  dozeStart_ = sim_.now();
  queryAfterWake_ = queryAfterWake;
  if (collector_) collector_->onDisconnect();
  sim_.schedule(disc_.duration(), [this] { wake(); });
}

void Client::wake() {
  assert(state_ == State::kDozing);
  connected_ = true;
  if (collector_) collector_->onReconnect(sim_.now() - dozeStart_);
  scheme_->onWake(ctx_, sim_.now());
  if (queryAfterWake_) {
    // Post-query model: the doze *replaced* the think time.
    issueQuery();
  } else {
    // Interval-coin model: the doze interrupted a think; finish it.
    const double remaining = std::max(0.0, thinkDeadline_ - dozeStart_);
    startThink(remaining);
  }
}

void Client::onValidityReply(const schemes::ValidityReply& reply) {
  if (!connected_) return;  // missed while dozing; epoch guard covers stragglers
  if (collector_) collector_->onClientRx(reply.sizeBits);
  scheme_->onValidityReply(reply, ctx_);
  if (state_ == State::kAwaitingReport || state_ == State::kAwaitingSalvage) {
    maybeAnswerQuery();
  }
}

}  // namespace mci::core
