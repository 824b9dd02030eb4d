#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"

namespace mci::live {

/// Batched UDP syscall backend: `sendmmsg` for the per-tick IR fan-out and
/// `recvmmsg` for draining client downlinks, so one tick to N clients
/// costs O(N / kBatch) kernel entries instead of O(N).
///
/// Availability is probed once at first use (`available()`): a kernel,
/// seccomp filter or emulation layer without the syscalls answers ENOSYS,
/// and every call site keeps the classic one-datagram loop as a per-call
/// fallback (`Result::fellBack` / the `fellBack` out-param), so behaviour
/// is identical either way — only the syscall count changes.
class UdpBatchSender {
 public:
  /// Datagrams per sendmmsg call (bounds the reused header/iovec arrays).
  static constexpr unsigned kBatch = 64;

  struct Result {
    std::uint64_t syscalls = 0;  ///< kernel entries this fan-out cost
    std::uint64_t sent = 0;      ///< datagrams the kernel accepted
    std::uint64_t failed = 0;    ///< datagrams refused (counted, dropped)
    /// sendmmsg itself was refused (ENOSYS): nothing was sent and the
    /// caller must run its per-socket loop for this fan-out.
    bool fellBack = false;
  };

  /// True when the running kernel accepts sendmmsg/recvmmsg. Probed once;
  /// a false answer permanently routes callers to the fallback loops.
  [[nodiscard]] static bool available();

  /// Sends the same [data, data+len) datagram to every destination,
  /// kBatch at a time. Non-blocking; refused datagrams are dropped and
  /// counted (IR is lossy by the paper's model — clients resync from the
  /// next report).
  MCI_HOT Result sendToMany(int fd, const std::uint8_t* data,
                            std::size_t len,
                            const std::vector<const sockaddr_in*>& dests);

 private:
  // Reused across calls and ticks: zero steady-state allocation.
  std::array<mmsghdr, kBatch> hdrs_{};
  std::array<iovec, kBatch> iovs_{};
};

/// recvmmsg drain buffer, shared per pool (kBatch * 64 KiB once, not per
/// agent): one kernel entry pulls up to kBatch datagrams off a downlink.
/// drain() is the one downlink read loop of the live stack; its classic
/// per-datagram recv fallback reuses the same buffer.
class UdpBatchReceiver {
 public:
  static constexpr unsigned kBatch = 16;
  static constexpr std::size_t kDatagramBytes = 1 << 16;

  struct Datagram {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };

  UdpBatchReceiver();

  /// One recvmmsg: up to kBatch datagrams into the internal buffers.
  /// Returns the count (0 = drained / would-block / transient error).
  /// Sets `fellBack` when the kernel refused the syscall (ENOSYS) — the
  /// caller must drain with single recv() calls instead.
  [[nodiscard]] MCI_HOT int receive(int fd, bool& fellBack);

  /// The i-th datagram of the last receive() (valid until the next call).
  [[nodiscard]] Datagram datagram(int i) const;

  /// Reads `fd` until it would block, handing each datagram to
  /// `onDatagram(const std::uint8_t*, std::size_t) -> bool`; a false
  /// return stops the drain (the handler closed or retired the socket).
  /// One `syscalls` per recvmmsg batch, or per recv once the receiver has
  /// fallen back: the first ENOSYS from recvmmsg (a seccomp filter or
  /// emulation layer the startup probe did not see) routes this receiver
  /// to single recv calls for good.
  template <typename OnDatagram>
  MCI_HOT void drain(int fd, std::uint64_t& syscalls, OnDatagram&& onDatagram) {
    for (;;) {
      const int n = fill(fd, syscalls);
      if (n == 0) return;  // drained, or a transient error
      for (int i = 0; i < n; ++i) {
        const Datagram d = datagram(i);
        if (!onDatagram(d.data, d.len)) return;
      }
    }
  }

 private:
  /// The next datagrams for drain(): one recvmmsg batch, or one recv into
  /// slot 0 once fallen back (the refused recvmmsg counts too).
  [[nodiscard]] MCI_HOT int fill(int fd, std::uint64_t& syscalls);

  std::vector<std::uint8_t> storage_;  ///< kBatch contiguous slots
  std::array<mmsghdr, kBatch> hdrs_{};
  std::array<iovec, kBatch> iovs_{};
  bool fellBack_ = false;  ///< recvmmsg answered ENOSYS: recv from now on
};

}  // namespace mci::live
