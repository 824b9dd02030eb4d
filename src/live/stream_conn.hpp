#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "live/reactor.hpp"
#include "live/wire.hpp"
#include "net/message.hpp"

namespace mci::live {

/// Sets O_NONBLOCK on `fd`. Returns 0, or -1 with errno set.
int makeNonBlocking(int fd);

/// Dials ipv4:port (host byte order) over TCP with Nagle off, then makes
/// the socket non-blocking. The connect itself blocks: it completes in one
/// round trip on the loopback and same-host cluster links every caller
/// dials. Returns the connected fd, or -1 (nothing left open).
[[nodiscard]] int dialTcp(std::uint32_t ipv4, std::uint16_t port);

/// A client's non-blocking IR downlink socket: bound to the group port and
/// joined on interface `ipv4` when `mcastIpv4` != 0, else bound to an
/// ephemeral loopback port. Throws std::runtime_error on failure
/// (including a refused multicast join).
[[nodiscard]] int openDownlinkUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4,
                                  std::uint16_t mcastPort);

/// The local port `fd` is bound to; 0 when getsockname fails.
[[nodiscard]] std::uint16_t boundPort(int fd);

/// One non-blocking, framed TCP stream registered on a level-triggered
/// Reactor: the reassembly buffer, the outbound queue with its unsent tail,
/// and the EPOLLOUT interest that drains the tail. Every TCP endpoint of
/// the live stack (server connections, reshard handoff channels, the swarm
/// mux's endpoints, client agents' uplinks) reads and writes through one.
///
/// Policy stays with the owner: who closes the fd and when, whether a
/// frame may be queued at all (the server's drop cap), and when to flush
/// (the server corks replies per event, the agent and mux flush once per
/// handler). The owner also keeps its own Reactor::FdHandle; the stream
/// only changes the registered interest mask.
class StreamConn {
 public:
  enum class ReadStatus {
    kOpen,     ///< read to a short chunk or EAGAIN; wait for the next event
    kClosed,   ///< orderly EOF or a hard recv error: the owner closes
    kCorrupt,  ///< framing lost (bad length field): the owner closes
    kStopped,  ///< the frame handler returned false; `this` is not touched
  };

  /// Bytes per recv. Each chunk's frames reach the owner before the next
  /// recv, which bounds the reassembly buffer to about one chunk plus one
  /// partial frame.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  int fd = -1;
  wire::FrameBuffer in;
  /// Queued frames, then the unsent tail from outOff; high-water capacity.
  std::vector<std::uint8_t> out;
  std::size_t outOff = 0;
  bool wantWrite = false;  ///< the kernel refused bytes; EPOLLOUT armed

  /// Bytes queued that the kernel has not accepted yet.
  [[nodiscard]] std::size_t pending() const { return out.size() - outOff; }

  /// Appends one frame carrying `payload` to the queue; nothing is sent
  /// until flush().
  void queueFrame(wire::FrameType type, net::TrafficClass trafficClass,
                  std::span<const std::uint8_t> payload);

  /// Reads chunk by chunk and hands every complete frame to
  /// `onFrame(const wire::FrameView&) -> bool`, frames left buffered by an
  /// earlier stopped read first. The view aliases `in` and is valid for
  /// the call only. A false return means the handler closed or retired the
  /// owner (possibly destroying this stream): read returns kStopped at
  /// once without touching any member.
  template <typename OnFrame>
  [[nodiscard]] MCI_HOT ReadStatus read(OnFrame&& onFrame) {
    for (Fill fill = Fill::kFull;;) {
      while (std::optional<wire::FrameView> frame = in.nextView()) {
        if (!onFrame(*frame)) return ReadStatus::kStopped;
      }
      if (in.corrupt()) return ReadStatus::kCorrupt;
      if (fill == Fill::kShort) return ReadStatus::kOpen;
      fill = recvChunk();
      if (fill == Fill::kClosed) return ReadStatus::kClosed;
      if (fill == Fill::kDrained) return ReadStatus::kOpen;
    }
  }

  /// Sends the queue until it is empty or the kernel answers EAGAIN,
  /// counting one `sendCalls` per send. A refused tail arms EPOLLOUT (whose
  /// event should call flush again); a drained queue disarms it. Returns
  /// false on a hard send error: the owner must close the connection.
  [[nodiscard]] MCI_HOT bool flush(Reactor& reactor, std::uint64_t& sendCalls);

 private:
  enum class Fill { kFull, kShort, kDrained, kClosed };
  /// One recv of up to kChunkBytes, appended to `in`.
  MCI_HOT Fill recvChunk();
};

}  // namespace mci::live
