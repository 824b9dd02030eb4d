#include "live/stream_conn.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mci::live {
namespace {

/// Receive buffer asked for on every downlink. A swarm funnels a whole
/// shard's IR stream through one socket, so the kernel needs room for a
/// tick burst the engine is still working through. Best effort: the
/// kernel may clamp it.
constexpr int kDownlinkRcvBufBytes = 1 << 21;

}  // namespace

int makeNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags < 0 ? -1 : ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int dialTcp(std::uint32_t ipv4, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // Queries, checks, fills and handoff frames are small and latency-bound:
  // with Nagle on they wait behind the peer's delayed ACK, stretching a
  // loopback round trip past a broadcast period at high time scales.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ipv4);
  addr.sin_port = htons(port);
  // MCI-ANALYZE-ALLOW(reactor-blocking): loopback connect, one RTT
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      makeNonBlocking(fd) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int openDownlinkUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4,
                    std::uint16_t mcastPort) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("live downlink: UDP socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // unicast: ephemeral port
  if (mcastIpv4 != 0) {
    // Multicast downlink: every listener of the shard binds the group port
    // (shared via SO_REUSEADDR) and joins the group on the shard's
    // interface — one datagram then reaches them all.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(mcastPort);
  }
  ip_mreq mreq{};
  mreq.imr_multiaddr.s_addr = htonl(mcastIpv4);
  mreq.imr_interface.s_addr = htonl(ipv4);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      (mcastIpv4 != 0 && ::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP,
                                      &mreq, sizeof mreq) != 0)) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("live downlink: bind/join failed: ") +
                             std::strerror(err));
  }
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kDownlinkRcvBufBytes,
               sizeof kDownlinkRcvBufBytes);
  return fd;
}

std::uint16_t boundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

void StreamConn::queueFrame(wire::FrameType type,
                            net::TrafficClass trafficClass,
                            std::span<const std::uint8_t> payload) {
  const std::array<std::uint8_t, wire::kHeaderBytes> hdr =
      wire::encodeFrameHeader(type, wire::kNoScheme, trafficClass, payload);
  out.insert(out.end(), hdr.begin(), hdr.end());
  out.insert(out.end(), payload.begin(), payload.end());
}

StreamConn::Fill StreamConn::recvChunk() {
  std::uint8_t buf[kChunkBytes];
  // MCI-ANALYZE-ALLOW(reactor-blocking): every StreamConn fd is O_NONBLOCK
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);  // (accept4, dialTcp)
  if (n > 0) {
    in.append(buf, static_cast<std::size_t>(n));
    return static_cast<std::size_t>(n) < sizeof buf ? Fill::kShort
                                                    : Fill::kFull;
  }
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return Fill::kDrained;
  return Fill::kClosed;  // orderly EOF or hard error
}

bool StreamConn::flush(Reactor& reactor, std::uint64_t& sendCalls) {
  while (outOff < out.size()) {
    ++sendCalls;
    // MCI-ANALYZE-ALLOW(reactor-blocking): every StreamConn fd is O_NONBLOCK
    const ssize_t n = ::send(fd, out.data() + outOff, out.size() - outOff,
                             MSG_NOSIGNAL);
    if (n > 0) {
      outOff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!wantWrite) {
        wantWrite = true;
        reactor.modifyFd(fd, EPOLLIN | EPOLLOUT);
      }
      return true;
    }
    return false;
  }
  out.clear();
  outOff = 0;
  if (wantWrite) {
    wantWrite = false;
    reactor.modifyFd(fd, EPOLLIN);
  }
  return true;
}

}  // namespace mci::live
