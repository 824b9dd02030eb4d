#include "swarm/mux.hpp"

#include <arpa/inet.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "net/message.hpp"

namespace mci::swarm {

UplinkMux::UplinkMux(live::Reactor& reactor, SwarmSink& sink, Options opts)
    : reactor_(reactor),
      owner_(reactor.makeOwner()),
      sink_(sink),
      opts_(std::move(opts)) {
  MCI_CHECK(opts_.endpointsPerShard >= 1);
  MCI_CHECK(opts_.maxItemsPerQueryFrame >= 1 &&
            opts_.maxItemsPerQueryFrame <= 0xFFFF);
}

UplinkMux::~UplinkMux() {
  closeAll();
  reactor_.retireOwner(owner_);
}

std::unique_ptr<UplinkMux::Conn> UplinkMux::dialConn(std::uint32_t shard,
                                                     std::uint32_t endpoint,
                                                     std::uint32_t ipv4,
                                                     std::uint16_t tcpPort) {
  auto conn = std::make_unique<Conn>();
  conn->shard = shard;
  conn->endpoint = endpoint;
  conn->stream.fd = live::dialTcp(ipv4, tcpPort);
  if (conn->stream.fd < 0) {
    throw std::runtime_error("swarm mux: connect failed");
  }
  Conn* cp = conn.get();
  conn->reg = reactor_.addFd(
      conn->stream.fd, EPOLLIN,
      [this, cp](std::uint32_t ev) { onTcp(*cp, ev); }, owner_);
  return conn;
}

void UplinkMux::sendHello(Conn& conn, std::uint16_t udpPort) {
  live::wire::Hello h;
  h.udpPort = udpPort;
  h.audit = false;  // the swarm audits locally against the real databases
  conn.stream.queueFrame(live::wire::FrameType::kHello,
                         net::TrafficClass::kControl,
                         live::wire::encodeHello(h));
  flushOut(conn);
}

void UplinkMux::connect() {
  in_addr seed{};
  if (::inet_pton(AF_INET, opts_.host.c_str(), &seed) != 1) {
    throw std::runtime_error("swarm mux: bad host " + opts_.host);
  }
  // Seed link at slot 0 until the Welcome names its shard; its downlink is
  // unicast-bound now and swapped if the shard turns out to be multicast.
  live::ShardEndpoint seedEp;
  seedEp.ipv4 = ntohl(seed.s_addr);
  seedEp.tcpPort = opts_.port;
  links_.push_back(openLink(kUnknownShard, seedEp));
  dialEndpoints(*links_.front(), seedEp, 1);
}

std::unique_ptr<UplinkMux::Link> UplinkMux::openLink(
    std::uint32_t shard, const live::ShardEndpoint& ep) {
  auto link = std::make_unique<Link>();
  link->shard = shard;
  openDownlink(*link, ep);
  return link;
}

void UplinkMux::openDownlink(Link& link, const live::ShardEndpoint& ep) {
  link.udpFd =
      live::openDownlinkUdp(ep.ipv4, ep.multicastIpv4, ep.multicastPort);
  Link* lp = &link;
  link.udpReg = reactor_.addFd(
      link.udpFd, EPOLLIN, [this, lp](std::uint32_t ev) { onUdp(*lp, ev); },
      owner_);
}

void UplinkMux::closeDownlink(Link& link) {
  if (link.udpFd < 0) return;
  reactor_.removeFd(link.udpReg);
  ::close(link.udpFd);
  link.udpFd = -1;
}

void UplinkMux::dialEndpoints(Link& link, const live::ShardEndpoint& ep,
                              std::uint32_t count) {
  const std::uint16_t downlinkPort =
      ep.multicastIpv4 != 0 ? 0 : live::boundPort(link.udpFd);
  for (auto e = static_cast<std::uint32_t>(link.conns.size()); e < count;
       ++e) {
    link.conns.push_back(dialConn(link.shard, e, ep.ipv4, ep.tcpPort));
    // Endpoint 0 owns the shard's one downlink; every other endpoint
    // opts out of the unicast fan-out with port 0 (see wire::Hello).
    sendHello(*link.conns.back(), e == 0 ? downlinkPort : 0);
  }
}

void UplinkMux::buildCluster(const live::wire::Welcome& w) {
  map_ = w.shardMap;
  const std::uint32_t shards = map_.shardCount();
  MCI_CHECK(shards >= 1);

  std::unique_ptr<Link> seedLink = std::move(links_.front());
  links_.clear();
  links_.resize(shards);
  seedLink->shard = w.shardIndex;
  seedLink->conns.front()->shard = w.shardIndex;

  const live::ShardEndpoint& seedEp = map_.endpoint(w.shardIndex);
  if (seedEp.multicastIpv4 != 0) {
    // The seed downlink was dialed unicast before the map was known, but
    // this shard only broadcasts to its group: swap in a joined socket.
    closeDownlink(*seedLink);
    openDownlink(*seedLink, seedEp);
  }
  links_[w.shardIndex] = std::move(seedLink);

  for (std::uint32_t s = 0; s < shards; ++s) {
    const live::ShardEndpoint& ep = map_.endpoint(s);
    if (links_[s] == nullptr) links_[s] = openLink(s, ep);
    dialEndpoints(*links_[s], ep, opts_.endpointsPerShard);
  }
}

void UplinkMux::handleWelcome(Conn& conn, const live::wire::Welcome& w) {
  if (conn.welcomed) return;
  conn.welcomed = true;
  ++welcomedConns_;
  if (!sawWelcome_) {
    sawWelcome_ = true;
    sink_.onWelcome(w);   // configure the engine before any report lands
    buildCluster(w);      // seed conn counted above; dials the rest
  }
  const std::size_t want = static_cast<std::size_t>(map_.shardCount()) *
                           opts_.endpointsPerShard;
  if (!ready_ && map_.valid() && welcomedConns_ == want) {
    ready_ = true;
    sink_.onMuxReady();
  }
  // A joiner conn may have accumulated staged fetches while its handshake
  // was in flight (the server drops queries from un-welcomed conns).
  flushConnStaged(conn);
}

void UplinkMux::onUdp(Link& link, std::uint32_t events) {
  if (opts_.allocProbe == nullptr) {
    onUdpIo(link, events);
    return;
  }
  const std::uint64_t before = opts_.allocProbe();
  onUdpIo(link, events);
  stats_.hotAllocs += opts_.allocProbe() - before;
}

void UplinkMux::onTcp(Conn& conn, std::uint32_t events) {
  if (opts_.allocProbe == nullptr) {
    onTcpIo(conn, events);
    return;
  }
  const std::uint64_t before = opts_.allocProbe();
  onTcpIo(conn, events);
  stats_.hotAllocs += opts_.allocProbe() - before;
}

void UplinkMux::onUdpIo(Link& link, std::uint32_t events) {
  if ((events & EPOLLIN) == 0) return;
  udpReceiver_.drain(link.udpFd, stats_.udpRecvSyscalls,
                     [this, &link](const std::uint8_t* data, std::size_t len) {
                       handleDatagram(link, data, len);
                       // A kMapUpdate may have retired the link (reshard
                       // shrink): its downlink is closed, drop the rest.
                       return link.udpFd >= 0;
                     });
}

void UplinkMux::handleDatagram(Link& link, const std::uint8_t* data,
                               std::size_t len) {
  const std::optional<live::wire::FrameView> f =
      live::wire::decodeFrameView(data, len);
  if (!f) {
    ++stats_.badFrames;
    return;
  }
  if (f->header.type == live::wire::FrameType::kMapUpdate) {
    // Epoch announce piggybacked on the IR downlink. Control path: the
    // allocating decoder is fine here.
    if (auto m = live::wire::decodeMapUpdate(f->payload)) {
      applyMapUpdate(m->shardMap);
    } else {
      ++stats_.badFrames;
    }
    return;
  }
  if (f->header.type != live::wire::FrameType::kReport) {
    ++stats_.badFrames;
    return;
  }
  if (link.shard == kUnknownShard) {
    // A report raced the seed Welcome; without the map there is no engine
    // configuration to apply it to. The next tick repeats the news.
    ++stats_.ignoredFrames;
    return;
  }
  ++stats_.reportsHeard;
  sink_.onReportPayload(link.shard, f->payload.data(), f->payload.size());
}

void UplinkMux::onTcpIo(Conn& conn, std::uint32_t events) {
  if (conn.stream.fd < 0) return;
  if ((events & EPOLLOUT) != 0) flushOut(conn);
  if (conn.stream.fd < 0 || (events & EPOLLIN) == 0) return;
  const live::StreamConn::ReadStatus st =
      conn.stream.read([this, &conn](const live::wire::FrameView& f) {
        handleFrameView(conn, f);
        return conn.stream.fd >= 0;
      });
  if (st == live::StreamConn::ReadStatus::kClosed ||
      st == live::StreamConn::ReadStatus::kCorrupt) {
    dropConn(conn);
  }
}

void UplinkMux::handleFrameView(Conn& conn, const live::wire::FrameView& f) {
  using live::wire::FrameType;
  switch (f.header.type) {
    case FrameType::kWelcome: {
      // Handshake path: the allocating decoder is fine here.
      if (auto w = live::wire::decodeWelcome(f.payload)) {
        handleWelcome(conn, *w);
      } else {
        ++stats_.badFrames;
      }
      return;
    }
    case FrameType::kDataItem: {
      // [item:32][version:32][readTime:64 raw double] — parsed in place.
      report::BitReader r(f.payload.data(), f.payload.size());
      const auto item = static_cast<db::ItemId>(r.read(32));
      const auto version = static_cast<db::Version>(r.read(32));
      const double readTime = std::bit_cast<double>(r.read(64));
      if (!r.ok()) {
        ++stats_.badFrames;
        return;
      }
      if (conn.fetchQueue.empty()) {
        ++stats_.badFrames;  // reply with no outstanding request
        return;
      }
      const PendingFetch pf = conn.fetchQueue.front();
      conn.fetchQueue.pop();
      MCI_CHECK(pf.item == item)
          << "swarm mux: fetch reply out of order (sent " << pf.item
          << ", got " << item << ") on shard " << conn.shard << " endpoint "
          << conn.endpoint;
      ++stats_.dataItems;
      sink_.onDataItem(conn.shard, pf.client, item, version, pf.tick,
                       static_cast<Tick>(readTime * 1000.0 + 0.5));
      maybeCloseDrained(conn);
      return;
    }
    case FrameType::kCheckAck: {
      // [epoch:64][asOf:64 raw double]
      report::BitReader r(f.payload.data(), f.payload.size());
      r.skip(64);  // epoch: adaptive feedback does not use it
      const double asOf = std::bit_cast<double>(r.read(64));
      if (!r.ok()) {
        ++stats_.badFrames;
        return;
      }
      if (conn.ackQueue.empty()) {
        ++stats_.badFrames;
        return;
      }
      const std::uint32_t client = conn.ackQueue.front();
      conn.ackQueue.pop();
      sink_.onCheckAck(conn.shard, client,
                       static_cast<Tick>(asOf * 1000.0 + 0.5));
      maybeCloseDrained(conn);
      return;
    }
    case FrameType::kMapUpdate: {
      // Per-conn announce (cutover push or misroute re-announce).
      if (auto m = live::wire::decodeMapUpdate(f.payload)) {
        applyMapUpdate(m->shardMap);
      } else {
        ++stats_.badFrames;
      }
      return;
    }
    default:
      // kValidityReply (checking schemes only) and anything else the
      // adaptive swarm has no use for.
      ++stats_.ignoredFrames;
      return;
  }
}

void UplinkMux::queueFetch(std::uint32_t shard, std::uint32_t client,
                           db::ItemId item, Tick tick) {
  Link& link = *links_[shard];
  Conn& conn = *link.conns[client % opts_.endpointsPerShard];
  if (conn.stream.fd < 0) return;  // endpoint died; the run is already unsound
  // staged grows to the per-tick miss high-water mark only; cleared
  // (capacity kept) every flush
  // MCI-ANALYZE-ALLOW(hot-path-alloc): scratch high-water capacity
  conn.staged.push_back(item);
  conn.fetchQueue.push({client, item, tick});
}

void UplinkMux::flushFetches() {
  for (auto& link : links_) {
    for (auto& connPtr : link->conns) flushConnStaged(*connPtr);
  }
}

void UplinkMux::flushConnStaged(Conn& conn) {
  // Held until handleWelcome re-invokes us: the server drops queries
  // pre-Welcome. Checks are never queued on an unwelcomed conn.
  if (!conn.welcomed) return;
  std::size_t off = 0;
  while (off < conn.staged.size() && conn.stream.fd >= 0) {
    const std::size_t n = std::min<std::size_t>(
        conn.staged.size() - off, opts_.maxItemsPerQueryFrame);
    std::vector<std::uint8_t>& out = conn.stream.out;
    const std::size_t start = out.size();
    report::BitWriter w =
        live::wire::beginFrame(out, live::wire::FrameType::kQueryRequest,
                               live::wire::kNoScheme, net::TrafficClass::kBulk);
    live::wire::encodeQueryRequestInto(
        std::span<const db::ItemId>(conn.staged.data() + off, n), w);
    live::wire::finishFrame(out, start, w);
    ++stats_.queryFramesSent;
    stats_.fetchesSent += n;
    off += n;
  }
  conn.staged.clear();
  flushOut(conn);
}

bool UplinkMux::sendCheck(std::uint32_t shard, std::uint32_t client,
                          double tlbSeconds, double sizeBits) {
  Link& link = *links_[shard];
  Conn& conn = *link.conns[client % opts_.endpointsPerShard];
  if (conn.stream.fd < 0 || !conn.welcomed) return false;
  live::wire::Check c;
  c.tlb = tlbSeconds;
  c.epoch = 0;  // FIFO correlation; the adaptive check carries no epoch
  c.sizeBits = sizeBits;
  // Corked: the frame leaves with this tick's flushFetches(), ahead of the
  // tick's query frame, exactly where an immediate send would have put it.
  std::vector<std::uint8_t>& out = conn.stream.out;
  const std::size_t start = out.size();
  report::BitWriter w =
      live::wire::beginFrame(out, live::wire::FrameType::kCheck,
                             live::wire::kNoScheme, net::TrafficClass::kControl);
  live::wire::encodeCheckInto(c, w);
  live::wire::finishFrame(out, start, w);
  conn.ackQueue.push(client);
  ++stats_.checksSent;
  return true;
}

void UplinkMux::applyMapUpdate(const live::ShardMap& map) {
  ++stats_.mapUpdatesHeard;
  if (!sawWelcome_ || !map_.valid()) return;  // seed Welcome carries the map
  if (!map.valid() || map.version() <= map_.version()) {
    ++stats_.staleMapUpdates;
    return;
  }
  const live::ShardMap old = map_;
  map_ = map;
  ++stats_.epochSwitches;

  const std::uint32_t newCount = map_.shardCount();
  // Re-key surviving links by endpoint identity; every cluster transition
  // keeps survivor indices stable, but matching on (ipv4, tcpPort) stays
  // correct even if that law ever changes.
  std::vector<std::unique_ptr<Link>> byShard(newCount);
  for (std::size_t oldS = 0; oldS < links_.size(); ++oldS) {
    std::unique_ptr<Link>& l = links_[oldS];
    if (l == nullptr) continue;
    const live::ShardEndpoint& oldEp =
        old.endpoint(static_cast<std::uint32_t>(oldS));
    bool placed = false;
    for (std::uint32_t s = 0; s < newCount && !placed; ++s) {
      const live::ShardEndpoint& ep = map_.endpoint(s);
      if (byShard[s] == nullptr && ep.ipv4 == oldEp.ipv4 &&
          ep.tcpPort == oldEp.tcpPort) {
        l->shard = s;
        for (auto& c : l->conns) c->shard = s;
        byShard[s] = std::move(l);
        placed = true;
      }
    }
    if (!placed) {
      // Endpoint retired: the IR downlink dies now, uplink conns drain
      // their in-flight replies (grace-served by the retiring daemon).
      l->shard = kUnknownShard;
      closeDownlink(*l);
      for (auto& c : l->conns) {
        c->draining = true;
        maybeCloseDrained(*c);
      }
      drainingLinks_.push_back(std::move(l));
    }
  }
  links_ = std::move(byShard);

  // Dial joiners. In-process loopback: dialConn's failure throw aborts the
  // run, same contract as the initial connect().
  for (std::uint32_t s = 0; s < newCount; ++s) {
    if (links_[s] != nullptr) continue;
    const live::ShardEndpoint& ep = map_.endpoint(s);
    links_[s] = openLink(s, ep);
    dialEndpoints(*links_[s], ep, opts_.endpointsPerShard);
  }

  // Drained conns no longer count toward readiness; joiners re-welcome.
  welcomedConns_ = 0;
  for (const auto& link : links_) {
    for (const auto& c : link->conns) {
      if (c->welcomed) ++welcomedConns_;
    }
  }

  sink_.onMapUpdate(old, map_);
}

void UplinkMux::maybeCloseDrained(Conn& conn) {
  if (!conn.draining || conn.stream.fd < 0) return;
  if (!conn.fetchQueue.empty() || !conn.ackQueue.empty()) return;
  // Quiet close, no Bye: the retiring daemon may already be gone.
  closeConn(conn);
}

void UplinkMux::flushOut(Conn& conn) {
  if (conn.stream.fd < 0) return;
  if (!conn.stream.flush(reactor_, stats_.tcpSendCalls)) dropConn(conn);
}

void UplinkMux::closeConn(Conn& conn) {
  reactor_.removeFd(conn.reg);
  ::close(conn.stream.fd);
  conn.stream.fd = -1;
}

void UplinkMux::dropConn(Conn& conn) {
  if (conn.stream.fd < 0) return;
  closeConn(conn);
  // A draining conn's EOF is the retiring daemon going away on schedule,
  // not a failure.
  if (!shuttingDown_ && !conn.draining) {
    ++stats_.connectionsLost;
    sink_.onConnectionLost(conn.shard);
  }
}

void UplinkMux::shutdown() {
  shuttingDown_ = true;
  for (auto& link : links_) {
    for (auto& connPtr : link->conns) {
      Conn& conn = *connPtr;
      if (conn.stream.fd < 0) continue;
      // Best-effort Bye behind any queued tail, so it never lands inside a
      // half-sent frame; the close right after is the real goodbye.
      conn.stream.queueFrame(live::wire::FrameType::kBye,
                             net::TrafficClass::kControl, {});
      flushOut(conn);
    }
  }
  closeAll();
}

void UplinkMux::closeAll() {
  for (auto* linkSet : {&links_, &drainingLinks_}) {
    for (auto& link : *linkSet) {
      if (link == nullptr) continue;
      for (auto& connPtr : link->conns) {
        if (connPtr->stream.fd >= 0) closeConn(*connPtr);
      }
      closeDownlink(*link);
    }
  }
}

}  // namespace mci::swarm
