#include "swarm/mux.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/message.hpp"

namespace mci::swarm {
namespace {

int makeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

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

std::uint16_t UplinkMux::boundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int UplinkMux::openDownlinkUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4,
                               std::uint16_t mcastPort) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("swarm mux: UDP socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (mcastIpv4 != 0) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(mcastPort);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      throw std::runtime_error("swarm mux: multicast UDP bind failed");
    }
    ip_mreq mreq{};
    mreq.imr_multiaddr.s_addr = htonl(mcastIpv4);
    mreq.imr_interface.s_addr = htonl(ipv4);
    if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                     sizeof mreq) != 0) {
      ::close(fd);
      throw std::runtime_error("swarm mux: multicast join failed");
    }
  } else {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd);
      throw std::runtime_error("swarm mux: UDP bind failed");
    }
  }
  // The whole swarm's IR stream funnels through one socket per shard;
  // give the kernel room for a tick burst that the engine is still
  // chewing on (best effort — the cap may clamp it).
  const int rcvbuf = 1 << 21;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  return fd;
}

std::unique_ptr<UplinkMux::Conn> UplinkMux::dialConn(std::uint32_t shard,
                                                     std::uint32_t endpoint,
                                                     std::uint32_t ipv4,
                                                     std::uint16_t tcpPort) {
  auto conn = std::make_unique<Conn>();
  conn->shard = shard;
  conn->endpoint = endpoint;
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (conn->fd < 0) throw std::runtime_error("swarm mux: socket() failed");
  // Fetch frames are small and latency-bound: without TCP_NODELAY, Nagle
  // holds them behind the peer's delayed ACK and a loopback round trip
  // stretches to tens of milliseconds — a whole broadcast period at high
  // time scales, turning every miss fill into a late (discarded) copy.
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in server{};
  server.sin_family = AF_INET;
  server.sin_addr.s_addr = htonl(ipv4);
  server.sin_port = htons(tcpPort);
  // Blocking connect (instant on loopback), then non-blocking I/O — the
  // same deliberate exception ClientAgent::makeLink documents.
  // MCI-ANALYZE-ALLOW(reactor-blocking): loopback connect, one RTT
  if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&server),
                sizeof server) != 0 ||
      makeNonBlocking(conn->fd) != 0) {
    ::close(conn->fd);
    throw std::runtime_error("swarm mux: connect failed");
  }

  Conn* cp = conn.get();
  conn->reg = reactor_.addFd(
      conn->fd, EPOLLIN, [this, cp](std::uint32_t ev) { onTcp(*cp, ev); },
      owner_);
  return conn;
}

void UplinkMux::sendHello(Conn& conn, std::uint16_t udpPort) {
  live::wire::Hello h;
  h.udpPort = udpPort;
  h.audit = false;  // the swarm audits locally against the real databases
  const std::vector<std::uint8_t> payload = live::wire::encodeHello(h);
  const auto frame =
      live::wire::encodeFrame(live::wire::FrameType::kHello,
                              live::wire::kNoScheme,
                              net::TrafficClass::kControl, payload);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flushOut(conn);
}

void UplinkMux::connect() {
  in_addr seed{};
  if (::inet_pton(AF_INET, opts_.host.c_str(), &seed) != 1) {
    throw std::runtime_error("swarm mux: bad host " + opts_.host);
  }
  // Seed link at slot 0 until the Welcome names its shard; its downlink is
  // unicast-bound now and swapped if the shard turns out to be multicast.
  auto link = std::make_unique<Link>();
  link->shard = kUnknownShard;
  link->udpFd = openDownlinkUdp(ntohl(seed.s_addr), 0, 0);
  Link* lp = link.get();
  link->udpReg = reactor_.addFd(
      link->udpFd, EPOLLIN, [this, lp](std::uint32_t ev) { onUdp(*lp, ev); },
      owner_);
  link->conns.push_back(dialConn(kUnknownShard, 0, ntohl(seed.s_addr),
                                 opts_.port));
  const std::uint16_t port = boundPort(link->udpFd);
  links_.push_back(std::move(link));
  sendHello(*links_.front()->conns.front(), port);
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
    reactor_.removeFd(seedLink->udpReg);
    ::close(seedLink->udpFd);
    seedLink->udpFd = openDownlinkUdp(seedEp.ipv4, seedEp.multicastIpv4,
                                      seedEp.multicastPort);
    Link* lp = seedLink.get();
    seedLink->udpReg = reactor_.addFd(
        seedLink->udpFd, EPOLLIN,
        [this, lp](std::uint32_t ev) { onUdp(*lp, ev); }, owner_);
  }
  links_[w.shardIndex] = std::move(seedLink);

  for (std::uint32_t s = 0; s < shards; ++s) {
    const live::ShardEndpoint& ep = map_.endpoint(s);
    if (links_[s] == nullptr) {
      auto link = std::make_unique<Link>();
      link->shard = s;
      link->udpFd = openDownlinkUdp(ep.ipv4, ep.multicastIpv4,
                                    ep.multicastPort);
      Link* lp = link.get();
      link->udpReg = reactor_.addFd(
          link->udpFd, EPOLLIN,
          [this, lp](std::uint32_t ev) { onUdp(*lp, ev); }, owner_);
      links_[s] = std::move(link);
    }
    Link& link = *links_[s];
    const bool multicast = ep.multicastIpv4 != 0;
    const std::uint16_t downlinkPort =
        multicast ? 0 : boundPort(link.udpFd);
    for (std::uint32_t e =
             static_cast<std::uint32_t>(link.conns.size());
         e < opts_.endpointsPerShard; ++e) {
      link.conns.push_back(dialConn(s, e, ep.ipv4, ep.tcpPort));
      // Endpoint 0 owns the shard's one downlink; every other endpoint
      // opts out of the unicast fan-out with port 0 (see wire::Hello).
      sendHello(*link.conns.back(), e == 0 ? downlinkPort : 0);
    }
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
  if (live::Reactor::supportsBatchedUdp() && !udpRecvFellBack_) {
    for (;;) {
      bool fellBack = false;
      const int n = udpReceiver_.receive(link.udpFd, fellBack);
      ++stats_.udpRecvSyscalls;
      if (fellBack) {
        udpRecvFellBack_ = true;
        break;
      }
      if (n == 0) return;  // drained
      for (int i = 0; i < n; ++i) {
        const live::UdpBatchReceiver::Datagram d = udpReceiver_.datagram(i);
        handleDatagram(link, d.data, d.len);
        // A kMapUpdate in this batch may have retired the link (reshard
        // shrink): its downlink is already closed, drop the rest.
        if (link.udpFd < 0) return;
      }
    }
  }
  std::uint8_t buf[1 << 16];
  for (;;) {
    // MCI-ANALYZE-ALLOW(reactor-blocking): udpFd is SOCK_NONBLOCK
    const ssize_t n = ::recv(link.udpFd, buf, sizeof buf, 0);
    ++stats_.udpRecvSyscalls;
    if (n <= 0) return;  // EAGAIN drained, or transient error
    handleDatagram(link, buf, static_cast<std::size_t>(n));
    if (link.udpFd < 0) return;  // retired by a kMapUpdate just handled
  }
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
    const std::vector<std::uint8_t> payload(f->payload.begin(),
                                            f->payload.end());
    if (auto m = live::wire::decodeMapUpdate(payload)) {
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
  if (conn.fd < 0) return;
  if ((events & EPOLLOUT) != 0) flushOut(conn);
  if (conn.fd < 0 || (events & EPOLLIN) == 0) return;
  std::uint8_t buf[1 << 16];
  for (;;) {
    // MCI-ANALYZE-ALLOW(reactor-blocking): fd is O_NONBLOCK (dialConn)
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) {
      dropConn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dropConn(conn);
      return;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    while (auto f = conn.in.nextView()) {
      handleFrameView(conn, *f);
      if (conn.fd < 0) return;
    }
    if (conn.in.corrupt()) {
      dropConn(conn);
      return;
    }
  }
}

void UplinkMux::handleFrameView(Conn& conn, const live::wire::FrameView& f) {
  using live::wire::FrameType;
  switch (f.header.type) {
    case FrameType::kWelcome: {
      // Handshake path: the allocating decoder is fine here.
      const std::vector<std::uint8_t> payload(f.payload.begin(),
                                              f.payload.end());
      if (auto w = live::wire::decodeWelcome(payload)) {
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
      const std::vector<std::uint8_t> payload(f.payload.begin(),
                                              f.payload.end());
      if (auto m = live::wire::decodeMapUpdate(payload)) {
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
  if (conn.fd < 0) return;  // endpoint died; the run is already unsound
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
  while (off < conn.staged.size() && conn.fd >= 0) {
    const std::size_t n = std::min<std::size_t>(
        conn.staged.size() - off, opts_.maxItemsPerQueryFrame);
    const std::size_t start = conn.out.size();
    report::BitWriter w =
        live::wire::beginFrame(conn.out, live::wire::FrameType::kQueryRequest,
                               live::wire::kNoScheme, net::TrafficClass::kBulk);
    live::wire::encodeQueryRequestInto(
        std::span<const db::ItemId>(conn.staged.data() + off, n), w);
    live::wire::finishFrame(conn.out, start, w);
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
  if (conn.fd < 0 || !conn.welcomed) return false;
  live::wire::Check c;
  c.tlb = tlbSeconds;
  c.epoch = 0;  // FIFO correlation; the adaptive check carries no epoch
  c.sizeBits = sizeBits;
  // Corked: the frame leaves with this tick's flushFetches(), ahead of the
  // tick's query frame, exactly where an immediate send would have put it.
  const std::size_t start = conn.out.size();
  report::BitWriter w =
      live::wire::beginFrame(conn.out, live::wire::FrameType::kCheck,
                             live::wire::kNoScheme, net::TrafficClass::kControl);
  live::wire::encodeCheckInto(c, w);
  live::wire::finishFrame(conn.out, start, w);
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
      if (l->udpFd >= 0) {
        reactor_.removeFd(l->udpReg);
        ::close(l->udpFd);
        l->udpFd = -1;
      }
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
    auto link = std::make_unique<Link>();
    link->shard = s;
    link->udpFd = openDownlinkUdp(ep.ipv4, ep.multicastIpv4,
                                  ep.multicastPort);
    Link* lp = link.get();
    link->udpReg = reactor_.addFd(
        link->udpFd, EPOLLIN, [this, lp](std::uint32_t ev) { onUdp(*lp, ev); },
        owner_);
    links_[s] = std::move(link);
    Link& lnk = *links_[s];
    const bool multicast = ep.multicastIpv4 != 0;
    const std::uint16_t downlinkPort =
        multicast ? 0 : boundPort(lnk.udpFd);
    for (std::uint32_t e = 0; e < opts_.endpointsPerShard; ++e) {
      lnk.conns.push_back(dialConn(s, e, ep.ipv4, ep.tcpPort));
      sendHello(*lnk.conns.back(), e == 0 ? downlinkPort : 0);
    }
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
  if (!conn.draining || conn.fd < 0) return;
  if (!conn.fetchQueue.empty() || !conn.ackQueue.empty()) return;
  // Quiet close, no Bye: the retiring daemon may already be gone.
  reactor_.removeFd(conn.reg);
  ::close(conn.fd);
  conn.fd = -1;
}

void UplinkMux::flushOut(Conn& conn) {
  while (conn.fd >= 0 && conn.outOff < conn.out.size()) {
    ++stats_.tcpSendCalls;
    // MCI-ANALYZE-ALLOW(reactor-blocking): fd is O_NONBLOCK (dialConn)
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.outOff,
                             conn.out.size() - conn.outOff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dropConn(conn);
      return;
    }
    conn.outOff += static_cast<std::size_t>(n);
  }
  if (conn.fd < 0) return;
  if (conn.outOff >= conn.out.size()) {
    conn.out.clear();
    conn.outOff = 0;
    if (conn.wantWrite) {
      conn.wantWrite = false;
      reactor_.modifyFd(conn.fd, EPOLLIN);
    }
  } else if (!conn.wantWrite) {
    // The kernel refused the tail: EPOLLOUT finishes it (onTcpIo).
    conn.wantWrite = true;
    reactor_.modifyFd(conn.fd, EPOLLIN | EPOLLOUT);
  }
}

void UplinkMux::dropConn(Conn& conn) {
  if (conn.fd < 0) return;
  reactor_.removeFd(conn.reg);
  ::close(conn.fd);
  conn.fd = -1;
  // A draining conn's EOF is the retiring daemon going away on schedule,
  // not a failure.
  if (!shuttingDown_ && !conn.draining) {
    ++stats_.connectionsLost;
    sink_.onConnectionLost(conn.shard);
  }
}

void UplinkMux::shutdown() {
  shuttingDown_ = true;
  const auto bye = live::wire::encodeFrame(live::wire::FrameType::kBye,
                                           live::wire::kNoScheme,
                                           net::TrafficClass::kControl, {});
  for (auto& link : links_) {
    for (auto& connPtr : link->conns) {
      Conn& conn = *connPtr;
      if (conn.fd < 0) continue;
      // Best-effort Bye behind any queued tail, so it never lands inside a
      // half-sent frame; the close right after is the real goodbye.
      conn.out.insert(conn.out.end(), bye.begin(), bye.end());
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
        if (connPtr->fd >= 0) {
          reactor_.removeFd(connPtr->reg);
          ::close(connPtr->fd);
          connPtr->fd = -1;
        }
      }
      if (link->udpFd >= 0) {
        reactor_.removeFd(link->udpReg);
        ::close(link->udpFd);
        link->udpFd = -1;
      }
    }
  }
}

}  // namespace mci::swarm
