#include "live/udp_batch.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

namespace mci::live {
namespace {

/// A nonblocking UDP socket bound to an ephemeral loopback port.
struct BoundSocket {
  int fd = -1;
  sockaddr_in addr{};

  BoundSocket() {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in bindAddr{};
    bindAddr.sin_family = AF_INET;
    bindAddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bindAddr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&bindAddr),
                     sizeof bindAddr),
              0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  }
  ~BoundSocket() {
    if (fd >= 0) ::close(fd);
  }
  BoundSocket(const BoundSocket&) = delete;
  BoundSocket& operator=(const BoundSocket&) = delete;
};

void sendOne(int fd, const sockaddr_in& to, const std::string& payload) {
  ASSERT_EQ(::sendto(fd, payload.data(), payload.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to),
            static_cast<ssize_t>(payload.size()));
}

/// Drains `fd` with repeated receive() calls; returns all payloads in
/// arrival order and asserts no call exceeds the batch bound.
std::vector<std::string> drainAll(UdpBatchReceiver& rx, int fd,
                                  std::vector<int>* batchSizes = nullptr) {
  std::vector<std::string> out;
  for (;;) {
    bool fellBack = false;
    const int n = rx.receive(fd, fellBack);
    EXPECT_FALSE(fellBack);
    EXPECT_LE(n, static_cast<int>(UdpBatchReceiver::kBatch));
    if (n == 0) return out;
    if (batchSizes != nullptr) batchSizes->push_back(n);
    for (int i = 0; i < n; ++i) {
      const UdpBatchReceiver::Datagram d = rx.datagram(i);
      out.emplace_back(reinterpret_cast<const char*>(d.data), d.len);
    }
  }
}

TEST(UdpBatchReceiver, ShortReadsKeepExactDatagramLengths) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  // Sizes chosen well below the 64 KiB slot: the receiver must report the
  // true datagram length, not the slot capacity, and must not bleed bytes
  // between slots.
  const std::vector<std::string> payloads = {
      "x", std::string(7, 'a'), std::string(100, 'b'), std::string(1400, 'c')};
  for (const std::string& p : payloads) sendOne(txSock.fd, rxSock.addr, p);

  UdpBatchReceiver rx;
  const std::vector<std::string> got = drainAll(rx, rxSock.fd);
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i].size(), payloads[i].size()) << "datagram " << i;
    EXPECT_EQ(got[i], payloads[i]) << "datagram " << i;
  }
}

TEST(UdpBatchReceiver, BurstsAboveBatchSizeSplitAcrossCalls) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  const int total = 40;  // > 2 * kBatch: needs at least three receive calls
  for (int i = 0; i < total; ++i) {
    sendOne(txSock.fd, rxSock.addr, "datagram-" + std::to_string(i));
  }

  UdpBatchReceiver rx;
  std::vector<int> batches;
  const std::vector<std::string> got = drainAll(rx, rxSock.fd, &batches);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(total));
  EXPECT_GE(batches.size(), 3u);
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              "datagram-" + std::to_string(i));
  }
}

TEST(UdpBatchReceiver, EmptySocketReturnsZeroWithoutFallback) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  UdpBatchReceiver rx;
  bool fellBack = true;
  EXPECT_EQ(rx.receive(rxSock.fd, fellBack), 0);
  EXPECT_FALSE(fellBack);
}

// Only ENOSYS means "run your recv() loop instead"; every other error is
// transient and must NOT flip callers into the permanent fallback.
TEST(UdpBatchReceiver, TransientErrorIsNotReportedAsFallback) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  UdpBatchReceiver rx;
  bool fellBack = false;
  EXPECT_EQ(rx.receive(-1, fellBack), 0);  // EBADF
  EXPECT_FALSE(fellBack);
}

/// drain() into a string list; `syscalls` accumulates across calls.
std::vector<std::string> drainPayloads(UdpBatchReceiver& rx, int fd,
                                       std::uint64_t& syscalls) {
  std::vector<std::string> out;
  rx.drain(fd, syscalls, [&out](const std::uint8_t* data, std::size_t len) {
    out.emplace_back(reinterpret_cast<const char*>(data), len);
    return true;
  });
  return out;
}

TEST(UdpBatchReceiver, DrainCountsOneSyscallPerBatch) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  const int total = 20;  // one full batch of 16, then 4, then the empty call
  for (int i = 0; i < total; ++i) {
    sendOne(txSock.fd, rxSock.addr, "datagram-" + std::to_string(i));
  }
  UdpBatchReceiver rx;
  std::uint64_t syscalls = 0;
  const std::vector<std::string> got = drainPayloads(rx, rxSock.fd, syscalls);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              "datagram-" + std::to_string(i));
  }
  EXPECT_EQ(syscalls, 3u);
}

TEST(UdpBatchReceiver, DrainStopsWhenTheHandlerSaysSo) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  for (int i = 0; i < 3; ++i) sendOne(txSock.fd, rxSock.addr, "x");
  UdpBatchReceiver rx;
  std::uint64_t syscalls = 0;
  int seen = 0;
  rx.drain(rxSock.fd, syscalls, [&seen](const std::uint8_t*, std::size_t) {
    ++seen;
    return false;
  });
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(syscalls, 1u);
}

/// Child-process body of the fallback test: returns 0 on success, 77 when
/// the kernel will not install the filter, another code per failed check.
int runDrainUnderRecvmmsgEnosys() {
  // recvmmsg answers ENOSYS from here on, exactly what a seccomp profile
  // or emulation layer that the startup probe raced would do.
  sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_recvmmsg, 0, 1),
      BPF_STMT(BPF_RET | BPF_K,
               SECCOMP_RET_ERRNO | (ENOSYS & SECCOMP_RET_DATA)),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog prog{};
  prog.len = sizeof filter / sizeof filter[0];
  prog.filter = filter;
  if (::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0 ||
      ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) != 0) {
    return 77;
  }
  BoundSocket rxSock;
  BoundSocket txSock;
  UdpBatchReceiver rx;
  std::uint64_t syscalls = 0;
  for (const char* p : {"a", "bb", "ccc"}) sendOne(txSock.fd, rxSock.addr, p);
  // The refused recvmmsg, three recvs, and the recv that finds it empty.
  if (drainPayloads(rx, rxSock.fd, syscalls) !=
      std::vector<std::string>{"a", "bb", "ccc"}) {
    return 1;
  }
  if (syscalls != 5) return 2;
  // Sticky: the next drain goes straight to recv, with no recvmmsg first.
  for (const char* p : {"d", "e"}) sendOne(txSock.fd, rxSock.addr, p);
  if (drainPayloads(rx, rxSock.fd, syscalls) !=
      std::vector<std::string>{"d", "e"}) {
    return 3;
  }
  if (syscalls != 5 + 3) return 4;
  return 0;
}

TEST(UdpBatchReceiver, DrainFallsBackStickilyOnEnosys) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  // The filter cannot be removed once installed, so it goes on a child.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(runDrainUnderRecvmmsgEnosys());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 77) GTEST_SKIP() << "seccomp filters refused";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "failed check in the child";
}

TEST(UdpBatchSender, FanOutAboveBatchSplitsIntoMinimalSyscalls) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  const std::size_t fanOut = 150;  // ceil(150 / 64) == 3 kernel entries
  const std::vector<const sockaddr_in*> dests(fanOut, &rxSock.addr);
  const std::uint8_t payload[] = {1, 2, 3, 4};

  UdpBatchSender tx;
  const UdpBatchSender::Result res =
      tx.sendToMany(txSock.fd, payload, sizeof payload, dests);
  EXPECT_FALSE(res.fellBack);
  EXPECT_EQ(res.syscalls, 3u);
  EXPECT_EQ(res.sent, fanOut);
  EXPECT_EQ(res.failed, 0u);

  UdpBatchReceiver rx;
  EXPECT_EQ(drainAll(rx, rxSock.fd).size(), fanOut);
}

TEST(UdpBatchSender, MidBatchRefusedDestinationIsCountedAndSkipped) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  // The limited-broadcast address without SO_BROADCAST is refused (EACCES)
  // deterministically — a wedged destination in the middle of a batch.
  sockaddr_in bad{};
  bad.sin_family = AF_INET;
  bad.sin_addr.s_addr = htonl(INADDR_BROADCAST);
  bad.sin_port = htons(9);
  const std::vector<const sockaddr_in*> dests = {&rxSock.addr, &bad,
                                                 &rxSock.addr, &rxSock.addr};
  const std::uint8_t payload[] = {9};

  UdpBatchSender tx;
  const UdpBatchSender::Result res =
      tx.sendToMany(txSock.fd, payload, sizeof payload, dests);
  EXPECT_FALSE(res.fellBack);
  EXPECT_EQ(res.failed, 1u);
  EXPECT_EQ(res.sent, 3u);

  UdpBatchReceiver rx;
  EXPECT_EQ(drainAll(rx, rxSock.fd).size(), 3u);
}

TEST(UdpBatchSender, EmptyFanOutCostsNothing) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket txSock;
  UdpBatchSender tx;
  const std::uint8_t payload[] = {0};
  const UdpBatchSender::Result res =
      tx.sendToMany(txSock.fd, payload, sizeof payload, {});
  EXPECT_EQ(res.syscalls, 0u);
  EXPECT_EQ(res.sent, 0u);
}

}  // namespace
}  // namespace mci::live
