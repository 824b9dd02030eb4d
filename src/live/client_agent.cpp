#include "live/client_agent.hpp"

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/adaptive_client.hpp"
#include "core/check.hpp"
#include "core/scheme_factory.hpp"

namespace mci::live {

// --- ClientAgent -------------------------------------------------------

ClientAgent::ClientAgent(ClientPool& pool, std::size_t index)
    : pool_(pool), index_(index), owner_(pool.reactor_.makeOwner()) {}

ClientAgent::~ClientAgent() {
  cancelTimer();
  for (auto* linkSet : {&links_, &draining_}) {
    for (auto& link : *linkSet) {
      if (link) closeLink(*link);
    }
  }
  pool_.reactor_.retireOwner(owner_);
}

std::unique_ptr<ClientAgent::Link> ClientAgent::makeLink(
    std::uint32_t shard, std::uint32_t ipv4, std::uint16_t tcpPort,
    std::uint32_t mcastIpv4, std::uint16_t mcastPort) {
  auto link = std::make_unique<Link>();
  link->shard = shard;
  link->ipv4 = ipv4;
  link->tcpPort = tcpPort;
  openDownlink(*link, ipv4, mcastIpv4, mcastPort);
  link->tcp.fd = dialTcp(ipv4, tcpPort);
  if (link->tcp.fd < 0) {
    closeLink(*link);
    throw std::runtime_error("live agent: connect failed");
  }
  Link* lp = link.get();
  link->tcpReg = pool_.reactor_.addFd(
      link->tcp.fd, EPOLLIN, [this, lp](std::uint32_t ev) { onTcp(*lp, ev); },
      owner_);
  return link;
}

void ClientAgent::openDownlink(Link& link, std::uint32_t ipv4,
                               std::uint32_t mcastIpv4,
                               std::uint16_t mcastPort) {
  link.udpFd = openDownlinkUdp(ipv4, mcastIpv4, mcastPort);
  Link* lp = &link;
  link.udpReg = pool_.reactor_.addFd(
      link.udpFd, EPOLLIN, [this, lp](std::uint32_t ev) { onUdp(*lp, ev); },
      owner_);
}

void ClientAgent::closeLink(Link& link) {
  if (link.tcp.fd >= 0) {
    pool_.reactor_.removeFd(link.tcpReg);
    ::close(link.tcp.fd);
    link.tcp.fd = -1;
  }
  if (link.udpFd >= 0) {
    pool_.reactor_.removeFd(link.udpReg);
    ::close(link.udpFd);
    link.udpFd = -1;
  }
}

void ClientAgent::sendHello(Link& link) {
  wire::Hello hello;
  hello.udpPort = boundPort(link.udpFd);
  hello.audit = pool_.opts_.sendAudit;
  link.tcp.queueFrame(wire::FrameType::kHello, net::TrafficClass::kControl,
                      wire::encodeHello(hello));
}

void ClientAgent::connect() {
  in_addr seed{};
  if (::inet_pton(AF_INET, pool_.opts_.host.c_str(), &seed) != 1) {
    throw std::runtime_error("live agent: bad host " + pool_.opts_.host);
  }
  links_.push_back(
      makeLink(kUnknownShard, ntohl(seed.s_addr), pool_.opts_.port, 0, 0));
  sendHello(*links_.back());
  flushLinks();
}

void ClientAgent::shutdown() {
  shuttingDown_ = true;
  for (auto& link : links_) {
    // Best-effort goodbye: teardown continues whether or not it lands.
    if (link) {
      link->tcp.queueFrame(wire::FrameType::kBye,
                           net::TrafficClass::kControl, {});
    }
  }
  flushLinks();
  dropAgent();
}

bool ClientAgent::connectionAlive() const {
  if (links_.empty()) return false;
  for (const auto& link : links_) {
    if (!link || link->tcp.fd < 0) return false;
  }
  return true;
}

void ClientAgent::cancelTimer() {
  if (timer_.valid()) {
    // One-shot handlers zero timer_ before anything else, so a valid
    // timer_ always names a pending timer.
    MCI_CHECK(pool_.reactor_.cancelTimer(timer_))
        << "agent timer " << timer_.id << " already gone";
    timer_ = {};
  }
}

void ClientAgent::dropAgent() {
  cancelTimer();
  bool hadLive = false;
  for (auto* linkSet : {&links_, &draining_}) {
    for (auto& link : *linkSet) {
      if (!link) continue;
      if (link->tcp.fd >= 0 && !link->draining) hadLive = true;
      closeLink(*link);
    }
  }
  // One agent = one host: losing any shard link retires the whole agent
  // (a real client would re-dial; the load generator just counts it).
  if (hadLive && !shuttingDown_) ++pool_.stats_.connectionsLost;
  state_ = State::kIdle;
}

void ClientAgent::onTcp(Link& link, std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    dropAgent();
    return;
  }
  if ((events & EPOLLIN) != 0) {
    const StreamConn::ReadStatus st =
        link.tcp.read([this, &link](const wire::FrameView& frame) {
          handleFrame(link, frame);
          return link.tcp.fd >= 0;
        });
    if (st == StreamConn::ReadStatus::kCorrupt) ++pool_.stats_.badFrames;
    if (st == StreamConn::ReadStatus::kClosed ||
        st == StreamConn::ReadStatus::kCorrupt) {
      dropAgent();
      return;
    }
  }
  flushLinks();  // also drains a tail EPOLLOUT reported
}

void ClientAgent::onUdp(Link& link, std::uint32_t events) {
  if ((events & EPOLLIN) == 0) return;
  pool_.udpReceiver_.drain(
      link.udpFd, pool_.stats_.udpRecvSyscalls,
      [this, &link](const std::uint8_t* data, std::size_t len) {
        return handleUdpDatagram(link, data, len);
      });
  flushLinks();
}

bool ClientAgent::handleUdpDatagram(Link& link, const std::uint8_t* data,
                                    std::size_t len) {
  // A dozing host's radio is off: the datagram is consumed from the
  // kernel but never heard by the model.
  if (!radioOn_ || link.scheme == nullptr) return true;
  std::optional<wire::Frame> frame = wire::decodeFrame(data, len);
  if (!frame) {
    ++pool_.stats_.badFrames;
    return true;
  }
  if (frame->header.type == wire::FrameType::kMapUpdate) {
    // The IR downlink's epoch announce: awake clients flip immediately;
    // dozing ones (returned above) flip via TCP or on the misroute
    // re-announce after waking.
    if (auto m = wire::decodeMapUpdate(frame->payload)) {
      pool_.onMapUpdate(m->shardMap);
    } else {
      ++pool_.stats_.badFrames;
    }
    return link.tcp.fd >= 0;  // the flip may have drained this link
  }
  if (frame->header.type != wire::FrameType::kReport) {
    ++pool_.stats_.badFrames;
    return true;
  }
  onReportPayload(link, frame->payload);
  return link.tcp.fd >= 0;  // report handling may have dropped us
}

void ClientAgent::handleFrame(Link& link, const wire::FrameView& frame) {
  switch (frame.header.type) {
    case wire::FrameType::kWelcome:
      if (auto m = wire::decodeWelcome(frame.payload)) onWelcome(link, *m);
      return;
    case wire::FrameType::kDataItem:
      if (auto m = wire::decodeDataItem(frame.payload)) onDataItem(link, *m);
      return;
    case wire::FrameType::kCheckAck:
      if (auto m = wire::decodeCheckAck(frame.payload)) {
        if (link.scheme != nullptr) {
          pool_.advanceModelTime(m->asOf);
          link.scheme->onCheckDelivered(*link.ctx, m->asOf);
        }
      }
      return;
    case wire::FrameType::kValidityReply:
      if (auto m = wire::decodeValidityReply(frame.payload)) {
        onValidityReply(link, *m);
      }
      return;
    case wire::FrameType::kMapUpdate:
      // Epoch announce on the uplink: processed even while dozing (the
      // radio gates UDP only), so a host that sleeps through a reshard
      // wakes already pointed at the new cluster.
      if (auto m = wire::decodeMapUpdate(frame.payload)) {
        pool_.onMapUpdate(m->shardMap);
      } else {
        ++pool_.stats_.badFrames;
      }
      return;
    default:
      ++pool_.stats_.badFrames;
      return;
  }
}

void ClientAgent::onWelcome(Link& link, const wire::Welcome& w) {
  // A Welcome racing the flip that drained its link: the daemon is no
  // longer part of this agent's epoch, so its slot claim means nothing.
  if (link.draining) return;
  if (link.scheme != nullptr) return;
  pool_.ensureConfigured(w);
  const ShardMap& map = pool_.shardMap();

  if (link.shard == kUnknownShard) {
    if (w.shardIndex >= map.shardCount()) {
      // The seed's slot is gone: a reshard retired it between our connect
      // and its Welcome. Too early to flip gracefully — retire the agent.
      dropAgent();
      return;
    }
    // The seed Welcome: adopt the sender's slot, take its client id as the
    // agent's identity, and dial the rest of the cluster.
    link.shard = w.shardIndex;
    agentId_ = w.clientId;

    const ShardEndpoint& seedEp = map.endpoint(w.shardIndex);
    if (seedEp.multicastIpv4 != 0) {
      // The seed link dialed before the map was known, so its downlink is
      // unicast — but this shard broadcasts only to its group. Swap in a
      // group-joined socket; no re-Hello needed, a multicast shard never
      // uses the Hello's per-client UDP port.
      pool_.reactor_.removeFd(link.udpReg);
      ::close(link.udpFd);
      openDownlink(link, seedEp.ipv4, seedEp.multicastIpv4,
                   seedEp.multicastPort);
    }

    std::vector<std::unique_ptr<Link>> byShard(map.shardCount());
    byShard[w.shardIndex] = std::move(links_.front());
    links_ = std::move(byShard);
    for (std::uint32_t s = 0; s < map.shardCount(); ++s) {
      if (links_[s]) continue;
      const ShardEndpoint& ep = map.endpoint(s);
      links_[s] =
          makeLink(s, ep.ipv4, ep.tcpPort, ep.multicastIpv4, ep.multicastPort);
      sendHello(*links_[s]);
    }

    // Same per-client streams as core::Simulation (root.fork("query", id)):
    // an agent whose seed identity is k draws the exact query/doze schedule
    // the simulator's client k draws.
    const sim::Rng root(pool_.opts_.cfg.seed);
    workload::QueryGenerator::Params qp;
    qp.meanThinkTime = pool_.agentCfg_.meanThinkTime;
    qp.meanItemsPerQuery = pool_.agentCfg_.meanItemsPerQuery;
    queryGen_.emplace(*pool_.queryPattern_, qp, root.fork("query", agentId_));
    workload::Disconnector::Params dp;
    dp.model = pool_.agentCfg_.disconnectModel;
    dp.probability = pool_.agentCfg_.disconnectProb;
    dp.meanDuration = pool_.agentCfg_.meanDisconnectTime;
    disc_.emplace(dp, root.fork("disc", agentId_));
    mapVersion_ = map.version();
  } else if (link.shard != w.shardIndex) {
    dropAgent();  // the map pointed us at a daemon claiming another slot
    return;
  }

  link.clientId = w.clientId;
  link.ctx = std::make_unique<schemes::ClientContext>(
      link.clientId, cacheShare(w.cacheCapacity, map.shardCount(), link.shard),
      pool_.sizes_, pool_.holderSim_, pool_.collector_.get(),
      pool_.agentCfg_.replacement);
  link.scheme = core::makeClientScheme(pool_.agentCfg_, pool_.sigTable_.get(),
                                       pool_.sigInitial_);

  // Copies that migrated here before this link was welcomed were parked in
  // pendingMigrate_; adopt the ones this partition owns. They enter as
  // suspects as of the pre-flip consistency point and run the ordinary
  // gap/salvage cycle before any of them can answer a query.
  const auto mine = std::stable_partition(
      pendingMigrate_.begin(), pendingMigrate_.end(),
      [&](const cache::Entry& e) { return map.shardOf(e.item) != link.shard; });
  if (mine != pendingMigrate_.end()) {
    for (auto it = mine; it != pendingMigrate_.end(); ++it) {
      link.ctx->cache().insert(*it);
    }
    pendingMigrate_.erase(mine, pendingMigrate_.end());
    core::adaptive::adoptAtAnchor(*link.ctx, pendingMigrateAsOf_);
  }

  ++welcomedLinks_;
  if (welcomedLinks_ == links_.size() && state_ == State::kIdle) {
    startThink(queryGen_->thinkTime());
  }
}

void ClientAgent::onReportPayload(Link& link,
                                  const std::vector<std::uint8_t>& payload) {
  const report::ReportPtr r = pool_.codec_->decodeAny(payload);
  if (r == nullptr) {
    ++pool_.stats_.badFrames;
    return;
  }
  ++pool_.stats_.reportsHeard;
  if (link.shard < pool_.stats_.reportsHeardPerShard.size()) {
    ++pool_.stats_.reportsHeardPerShard[link.shard];
  }
  pool_.advanceModelTime(r->broadcastTime);
  pool_.collector_->onClientRx(r->sizeBits);
  const schemes::ClientOutcome outcome = link.scheme->onReport(*r, *link.ctx);
  if (outcome.sendCheck) {
    sendCheck(link, outcome.check);
    if (link.tcp.fd < 0) return;
  }

  if (state_ == State::kQuerying) {
    maybeAnswerLink(link);
    maybeCompleteQuery();
  } else if (state_ == State::kThinking && link.shard == 0 &&
             disc_->params().model == workload::DisconnectModel::kIntervalCoin &&
             disc_->shouldDisconnect()) {
    // Coin on shard 0's reports only: one flip per broadcast interval,
    // exactly the simulator's cadence, regardless of cluster size.
    beginDoze(/*queryAfterWake=*/false);
  }
}

void ClientAgent::onDataItem(Link& link, const wire::DataItem& d) {
  if (link.scheme == nullptr) return;
  pool_.advanceModelTime(d.readTime);
  pool_.collector_->onClientRx(pool_.sizes_.dataItemBits());
  // A copy older than the shard's consistency point is dropped (the
  // shared late-copy rule); the next query simply misses again.
  (void)core::adaptive::acceptFetchedCopy(*link.ctx, d.item, d.version,
                                          d.readTime, d.readTime);

  auto it = std::find(link.fetch.begin(), link.fetch.end(), d.item);
  if (it != link.fetch.end()) link.fetch.erase(it);
  maybeCompleteQuery();
}

void ClientAgent::onValidityReply(Link& link, const wire::ValidityReplyMsg& vr) {
  if (link.scheme == nullptr || !radioOn_) return;
  pool_.advanceModelTime(vr.asOf);
  pool_.collector_->onClientRx(vr.sizeBits);
  schemes::ValidityReply reply;
  reply.client = link.clientId;
  reply.asOf = vr.asOf;
  reply.invalid = vr.invalid;
  reply.sizeBits = vr.sizeBits;
  reply.epoch = vr.epoch;
  link.scheme->onValidityReply(reply, *link.ctx);
  if (state_ == State::kQuerying) {
    maybeAnswerLink(link);
    maybeCompleteQuery();
  }
}

void ClientAgent::startThink(double modelSeconds) {
  state_ = State::kThinking;
  thinkDeadline_ = pool_.clock_->nowModel() + modelSeconds;
  timer_ = pool_.reactor_.addTimer(
      pool_.clock_->wallDelay(modelSeconds), 0,
      [this] {
        timer_ = {};
        issueQuery();
      },
      owner_);
}

void ClientAgent::issueQuery() {
  if (!connectionAlive()) return;
  if (!welcomed()) {
    // Mid-flip: joiner links are dialed but not yet welcomed. Retry on a
    // short timer instead of stalling the state machine forever.
    startThink(0.01);
    return;
  }
  queryGen_->nextQuery(queryItems_);
  queryStart_ = pool_.clock_->nowModel();
  queryStartWall_ = pool_.reactor_.nowSeconds();
  state_ = State::kQuerying;
  // Fan the query out by owner shard; each involved link answers on its
  // own shard's next report (per-shard consistency point).
  for (auto& link : links_) {
    link->items.clear();
    link->fetch.clear();
    link->needAnswer = false;
  }
  const ShardMap& map = pool_.shardMap();
  for (db::ItemId item : queryItems_) {
    Link& link = *links_[map.shardOf(item)];
    link.items.push_back(item);
    link.needAnswer = true;
  }
}

void ClientAgent::maybeAnswerLink(Link& link) {
  if (!link.needAnswer) return;
  if (link.ctx->salvagePending()) return;  // that shard's reply is in flight
  link.needAnswer = false;
  link.fetch.clear();
  for (db::ItemId item : link.items) {
    cache::Entry* e = link.ctx->cache().find(item);
    if (e != nullptr && !e->suspect) {
      link.ctx->cache().touch(item);
      pool_.collector_->onCacheAnswer(agentId_, item, e->version,
                                      link.ctx->lastHeard());
      if (pool_.opts_.sendAudit) {
        wire::Audit a;
        a.item = item;
        a.version = e->version;
        a.validAsOf = link.ctx->lastHeard();
        link.tcp.queueFrame(wire::FrameType::kAudit,
                            net::TrafficClass::kControl, wire::encodeAudit(a));
      }
    } else {
      pool_.collector_->onCacheMiss(agentId_);
      link.fetch.push_back(item);
    }
  }
  if (!link.fetch.empty()) {
    pool_.collector_->onClientTx(pool_.sizes_.queryRequestBits());
    wire::QueryRequest q;
    q.items = link.fetch;
    link.tcp.queueFrame(wire::FrameType::kQueryRequest,
                        net::TrafficClass::kBulk, wire::encodeQueryRequest(q));
  }
}

void ClientAgent::maybeCompleteQuery() {
  if (state_ != State::kQuerying) return;
  for (const auto& link : links_) {
    if (link->needAnswer || !link->fetch.empty()) return;
  }
  // A flip mid-query leaves its in-flight legs on the drained links; the
  // retiring daemons grace-serve them to completion before the fds close.
  for (const auto& link : draining_) {
    if (link->tcp.fd >= 0 && (link->needAnswer || !link->fetch.empty())) return;
  }
  completeQuery();
}

void ClientAgent::completeQuery() {
  pool_.collector_->onQueryCompleted(agentId_,
                                     pool_.clock_->nowModel() - queryStart_);
  const double wallSec = pool_.reactor_.nowSeconds() - queryStartWall_;
  pool_.stats_.queryLatencyUs.record(
      wallSec > 0 ? static_cast<std::uint64_t>(wallSec * 1e6) : 0);
  ++completed_;
  queryItems_.clear();
  closeDrainingLinks();  // no query in flight: drained links can close now
  if (disc_->params().model == workload::DisconnectModel::kPostQuery &&
      disc_->shouldDisconnect()) {
    beginDoze(/*queryAfterWake=*/true);
  } else {
    startThink(queryGen_->thinkTime());
  }
}

void ClientAgent::beginDoze(bool queryAfterWake) {
  cancelTimer();
  radioOn_ = false;
  state_ = State::kDozing;
  dozeStart_ = pool_.clock_->nowModel();
  queryAfterWake_ = queryAfterWake;
  pool_.collector_->onDisconnect();
  timer_ = pool_.reactor_.addTimer(
      pool_.clock_->wallDelay(disc_->duration()), 0,
      [this] {
        timer_ = {};
        wake();
      },
      owner_);
}

void ClientAgent::wake() {
  radioOn_ = true;
  pool_.collector_->onReconnect(pool_.clock_->nowModel() - dozeStart_);
  // Every shard link slept through its own stretch of reports; each scheme
  // instance judges its own gap against its shard's windows.
  for (auto& link : links_) {
    if (link->scheme != nullptr) {
      link->scheme->onWake(*link->ctx, pool_.holderSim_.now());
    }
  }
  if (queryAfterWake_) {
    issueQuery();
  } else {
    const double remaining = std::max(0.0, thinkDeadline_ - dozeStart_);
    startThink(remaining);
  }
}

void ClientAgent::sendCheck(Link& link, const schemes::CheckMessage& msg) {
  pool_.collector_->onCheckSent();
  pool_.collector_->onClientTx(msg.sizeBits);
  wire::Check c;
  c.tlb = msg.tlb;
  c.epoch = msg.epoch;
  c.sizeBits = msg.sizeBits;
  c.entries = msg.entries;
  link.tcp.queueFrame(wire::FrameType::kCheck, net::TrafficClass::kControl,
                      wire::encodeCheck(c));
}

void ClientAgent::flushLinks() {
  for (auto* linkSet : {&links_, &draining_}) {
    for (auto& link : *linkSet) {
      if (!link || link->tcp.fd < 0 || link->tcp.pending() == 0) continue;
      if (!link->tcp.flush(pool_.reactor_, pool_.stats_.tcpSendCalls)) {
        dropAgent();  // closes every link: nothing left to flush
        return;
      }
    }
  }
}

void ClientAgent::applyShardMap(const ShardMap& map) {
  // Before the seed Welcome there is nothing to flip: ensureConfigured has
  // not run and the seed's Welcome will carry the post-reshard map anyway.
  if (!queryGen_) return;
  if (map.version() <= mapVersion_) return;
  mapVersion_ = map.version();

  // The pre-flip anchor bounds every update a migrated copy could have
  // missed on its old owner's report stream. Migrated entries become
  // suspect as of it, so the salvage/gap machinery treats the epoch switch
  // exactly like a doze that started at preTlb. It already folds in every
  // open gap's suspectAsOf, so no destination's anchor is raised.
  const sim::SimTime preTlb =
      core::adaptive::preFlipAnchor<sim::SimTime>([&](auto&& visit) {
        for (const auto& l : links_) {
          if (l && l->ctx) visit(*l->ctx);
        }
      });

  // Re-key the links by endpoint identity: a surviving daemon keeps its
  // connection (and cache partition) even if its shard index changed;
  // endpoints that left the map drain instead of closing abruptly.
  std::vector<std::unique_ptr<Link>> byShard(map.shardCount());
  for (auto& l : links_) {
    if (!l) continue;
    bool placed = false;
    for (std::uint32_t s = 0; s < map.shardCount(); ++s) {
      const ShardEndpoint& ep = map.endpoint(s);
      if (!byShard[s] && ep.ipv4 == l->ipv4 && ep.tcpPort == l->tcpPort) {
        l->shard = s;
        byShard[s] = std::move(l);
        placed = true;
        break;
      }
    }
    if (!placed) {
      l->shard = kUnknownShard;
      l->draining = true;
      draining_.push_back(std::move(l));
    }
  }
  links_ = std::move(byShard);
  welcomedLinks_ = 0;
  for (const auto& l : links_) {
    if (l && l->scheme != nullptr) ++welcomedLinks_;
  }

  // Dial the joiners. Any socket failure retires the agent, same as a
  // broken link (a real client would re-dial; the harness counts it).
  for (std::uint32_t s = 0; s < map.shardCount(); ++s) {
    if (links_[s]) continue;
    const ShardEndpoint& ep = map.endpoint(s);
    try {
      links_[s] =
          makeLink(s, ep.ipv4, ep.tcpPort, ep.multicastIpv4, ep.multicastPort);
    } catch (const std::runtime_error&) {
      dropAgent();
      return;
    }
    sendHello(*links_[s]);
  }
  flushLinks();

  // Migrate cached copies whose owner changed. Two passes per source cache
  // (forEach forbids mutation): collect movers, then erase them.
  std::vector<cache::Entry> moved;
  std::vector<db::ItemId> evict;
  for (auto* linkSet : {&links_, &draining_}) {
    for (auto& l : *linkSet) {
      if (!l || !l->ctx) continue;
      evict.clear();
      l->ctx->cache().forEach([&](const cache::Entry& e) {
        if (l->draining || map.shardOf(e.item) != l->shard) {
          moved.push_back(e);
          evict.push_back(e.item);
        }
      });
      for (db::ItemId item : evict) l->ctx->cache().erase(item);
    }
  }

  pendingMigrateAsOf_ = preTlb;
  std::vector<bool> touched(map.shardCount(), false);
  for (cache::Entry e : moved) {
    // The copy itself is kept — that is the whole point of handoff — but
    // it may have missed an update listed only in its old owner's reports,
    // so it re-enters as a suspect and must survive a salvage round (the
    // new owner's spliced history answers it) before serving again.
    e.suspect = true;
    const std::uint32_t owner = map.shardOf(e.item);
    Link& dst = *links_[owner];
    if (dst.ctx) {
      dst.ctx->cache().insert(e);
      touched[owner] = true;
    } else {
      pendingMigrate_.push_back(e);  // joiner: adopted when its Welcome lands
    }
  }
  for (std::uint32_t s = 0; s < map.shardCount(); ++s) {
    if (touched[s]) core::adaptive::adoptAtAnchor(*links_[s]->ctx, preTlb);
  }

  // Drained links close once no query leg is in flight on them; mid-query
  // they stay open so the retiring daemon can grace-serve the answers.
  if (state_ != State::kQuerying) closeDrainingLinks();
}

void ClientAgent::closeDrainingLinks() {
  // No Bye frames here: a drained daemon may already be gone, and a send
  // failure would retire the whole agent. The Link objects stay allocated
  // (reactor handlers up the stack may still hold references); only the
  // fds close.
  for (auto& link : draining_) {
    if (link) closeLink(*link);
  }
}

// --- ClientPool --------------------------------------------------------

core::SimConfig welcomedConfig(const core::SimConfig& local,
                               const wire::Welcome& w) {
  core::SimConfig cfg = local;
  cfg.scheme = static_cast<schemes::SchemeKind>(w.scheme);
  cfg.dbSize = w.dbSize;
  cfg.numClients = w.numClients;
  cfg.broadcastPeriod = w.broadcastPeriod;
  cfg.windowIntervals = w.windowIntervals;
  cfg.timestampBits = w.timestampBits;
  cfg.dataItemBytes = w.dataItemBytes;
  cfg.controlMessageBytes = w.controlMessageBytes;
  cfg.sigSubsets = w.sigSubsets;
  cfg.sigPerItem = w.sigPerItem;
  cfg.sigVotes = w.sigVotes;
  cfg.gcoreGroupSize = w.gcoreGroupSize;
  return cfg;
}

ClientPool::ClientPool(Reactor& reactor, AgentOptions options)
    : reactor_(reactor),
      opts_(std::move(options)),
      dummyNet_(holderSim_, opts_.cfg.downlinkBps, opts_.cfg.uplinkBps,
                opts_.cfg.dataChannelBps),
      agentCfg_(opts_.cfg) {}

ClientPool::~ClientPool() = default;

void ClientPool::start() {
  agents_.reserve(opts_.numAgents);
  for (std::size_t i = 0; i < opts_.numAgents; ++i) {
    agents_.push_back(std::make_unique<ClientAgent>(*this, i));
    agents_.back()->connect();
  }
}

void ClientPool::shutdown() {
  for (auto& a : agents_) a->shutdown();
}

std::size_t ClientPool::welcomedCount() const {
  std::size_t n = 0;
  for (const auto& a : agents_) n += a->welcomed() ? 1 : 0;
  return n;
}

std::size_t ClientPool::aliveCount() const {
  std::size_t n = 0;
  for (const auto& a : agents_) n += a->connectionAlive() ? 1 : 0;
  return n;
}

std::uint64_t ClientPool::queriesCompleted() const {
  std::uint64_t n = 0;
  for (const auto& a : agents_) n += a->queriesCompleted();
  return n;
}

metrics::SimResult ClientPool::finalize() const {
  if (!collector_) return metrics::SimResult{};
  const double modelSeconds = clock_ ? clock_->nowModel() : 0.0;
  return collector_->finalize(modelSeconds, dummyNet_);
}

void ClientPool::ensureConfigured(const wire::Welcome& w) {
  if (configured_) return;
  configured_ = true;

  agentCfg_ = welcomedConfig(opts_.cfg, w);

  shardMap_ = w.shardMap;
  stats_.reportsHeardPerShard.assign(shardMap_.shardCount(), 0);

  sizes_ = agentCfg_.sizeModel();
  codec_ = std::make_unique<report::ReportCodec>(sizes_);
  queryPattern_.emplace(
      agentCfg_.workload == core::WorkloadKind::kHotCold
          ? workload::AccessPattern::hotCold(agentCfg_.dbSize,
                                             agentCfg_.hotQuery)
          : workload::AccessPattern::uniform(agentCfg_.dbSize));
  clock_.emplace(w.timeScale);

  // Version-less stand-in: versionAt() is always 0, so the local audit can
  // never fire falsely; real auditing happens either through the resolver
  // below (in-process cluster) or server-side via kAudit.
  dummyDb_ = std::make_unique<db::Database>(agentCfg_.dbSize);
  collector_ = std::make_unique<metrics::Collector>(*dummyDb_,
                                                    agentCfg_.auditStaleReads);
  collector_->setClientCount(agentCfg_.numClients);
  if (!opts_.auditDbs.empty()) {
    // Each item's authoritative version history lives on its owner shard.
    collector_->setDatabaseResolver(
        [this](db::ItemId item) -> const db::Database* {
          const std::uint32_t s = shardMap_.shardOf(item);
          return s < opts_.auditDbs.size() ? opts_.auditDbs[s] : nullptr;
        });
  }

  if (agentCfg_.scheme == schemes::SchemeKind::kSig) {
    sigTable_ = std::make_unique<report::SignatureTable>(
        agentCfg_.dbSize, agentCfg_.sigSubsets, agentCfg_.sigPerItem,
        w.sigSeed);
    // Joining with an empty cache: diffing against the table's epoch state
    // can only produce false invalidations, never hide one.
    sigInitial_ = sigTable_->combined();
  }
}

void ClientPool::onMapUpdate(const ShardMap& map) {
  ++stats_.mapUpdatesHeard;
  if (!configured_ || !map.valid()) return;
  if (map.version() <= shardMap_.version()) {
    ++stats_.staleMapUpdates;  // duplicate or replayed announce; ignore
    return;
  }
  shardMap_ = map;
  stats_.reportsHeardPerShard.resize(map.shardCount(), 0);
  ++stats_.epochSwitches;
  // Flip every agent now, in one callback: no reactor iteration ever sees
  // the pool's map and an agent's link vector disagree on shard count.
  for (auto& a : agents_) a->applyShardMap(map);
}

void ClientPool::advanceModelTime(sim::SimTime t) {
  if (t > holderSim_.now()) holderSim_.runUntil(t);
}

}  // namespace mci::live
