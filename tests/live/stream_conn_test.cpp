#include "live/stream_conn.hpp"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "live/reactor.hpp"
#include "live/wire.hpp"

namespace mci::live {
namespace {

/// A connected non-blocking AF_UNIX stream pair: `stream` drives one end,
/// the test plays the peer on the other.
struct Pair {
  StreamConn stream;
  int peer = -1;

  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                           0, fds),
              0);
    stream.fd = fds[0];
    peer = fds[1];
  }
  ~Pair() {
    if (stream.fd >= 0) ::close(stream.fd);
    if (peer >= 0) ::close(peer);
  }
  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;
};

std::vector<std::uint8_t> frameOf(std::size_t payloadBytes, std::uint8_t fill) {
  const std::vector<std::uint8_t> payload(payloadBytes, fill);
  return wire::encodeFrame(wire::FrameType::kDataItem, wire::kNoScheme,
                           net::TrafficClass::kBulk, payload);
}

void writeAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads everything the peer end has buffered; returns the byte count.
std::size_t drainPeer(int fd) {
  std::size_t total = 0;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n <= 0) return total;
    total += static_cast<std::size_t>(n);
  }
}

TEST(StreamConn, QueueFrameMatchesEncodeFrame) {
  StreamConn s;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  s.queueFrame(wire::FrameType::kCheck, net::TrafficClass::kControl, payload);
  s.queueFrame(wire::FrameType::kBye, net::TrafficClass::kControl, {});
  std::vector<std::uint8_t> expect =
      wire::encodeFrame(wire::FrameType::kCheck, wire::kNoScheme,
                        net::TrafficClass::kControl, payload);
  const std::vector<std::uint8_t> bye = wire::encodeFrame(
      wire::FrameType::kBye, wire::kNoScheme, net::TrafficClass::kControl, {});
  expect.insert(expect.end(), bye.begin(), bye.end());
  EXPECT_EQ(s.out, expect);
  EXPECT_EQ(s.pending(), expect.size());
}

TEST(StreamConn, FlushCountsOneCallPerSend) {
  Reactor reactor;
  Pair p;
  const Reactor::FdHandle reg =
      reactor.addFd(p.stream.fd, EPOLLIN, [](std::uint32_t) {});
  std::uint64_t calls = 0;
  ASSERT_TRUE(p.stream.flush(reactor, calls));
  EXPECT_EQ(calls, 0u);  // nothing queued, no syscall

  // Three frames queued, one send: the cork every caller relies on.
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> f =
        frameOf(100, static_cast<std::uint8_t>(i));
    p.stream.out.insert(p.stream.out.end(), f.begin(), f.end());
  }
  const std::size_t queued = p.stream.out.size();
  ASSERT_TRUE(p.stream.flush(reactor, calls));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(p.stream.pending(), 0u);
  EXPECT_TRUE(p.stream.out.empty());
  EXPECT_FALSE(p.stream.wantWrite);
  EXPECT_EQ(drainPeer(p.peer), queued);
  reactor.removeFd(reg);
}

TEST(StreamConn, RefusedTailArmsEpolloutAndTheEventDrainsAndDisarms) {
  Reactor reactor;
  Pair p;
  const int small = 4096;
  ASSERT_EQ(::setsockopt(p.stream.fd, SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof small),
            0);
  std::uint64_t calls = 0;
  int outEvents = 0;
  bool flushOk = true;
  const Reactor::FdHandle reg = reactor.addFd(
      p.stream.fd, EPOLLIN, [&](std::uint32_t ev) {
        if ((ev & EPOLLOUT) == 0) return;
        ++outEvents;
        flushOk = flushOk && p.stream.flush(reactor, calls);
      });

  // Far more than the socket buffers hold.
  std::vector<std::uint8_t> expect;
  for (int i = 0; i < 64; ++i) {
    const std::vector<std::uint8_t> f =
        frameOf(8000, static_cast<std::uint8_t>(i));
    expect.insert(expect.end(), f.begin(), f.end());
  }
  p.stream.out = expect;
  ASSERT_TRUE(p.stream.flush(reactor, calls));
  EXPECT_TRUE(p.stream.wantWrite) << "the kernel took " << p.stream.outOff
                                  << " of " << expect.size() << " bytes";
  EXPECT_GT(p.stream.pending(), 0u);
  EXPECT_GE(calls, 2u);  // at least one accepted send, then the refused one

  // The peer reads; every EPOLLOUT the reactor reports pushes the tail.
  std::vector<std::uint8_t> got;
  for (int round = 0; round < 10000 && got.size() < expect.size(); ++round) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::recv(p.peer, buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) break;
      got.insert(got.end(), buf, buf + n);
    }
    reactor.runOnce(1);
  }
  ASSERT_TRUE(flushOk);
  EXPECT_EQ(got, expect);
  EXPECT_GT(outEvents, 0);
  EXPECT_FALSE(p.stream.wantWrite);
  EXPECT_EQ(p.stream.pending(), 0u);

  // Disarmed: a writable socket no longer wakes the handler.
  const int before = outEvents;
  for (int i = 0; i < 5; ++i) reactor.runOnce(0);
  EXPECT_EQ(outEvents, before);
  reactor.removeFd(reg);
}

TEST(StreamConn, FramesSplitAcrossChunksReassembleInOrder) {
  Pair p;
  // Three ~30 KiB frames: together larger than one 64 KiB chunk, so at
  // least one frame straddles a chunk boundary.
  std::vector<std::uint8_t> bytes;
  for (std::uint8_t i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> f = frameOf(30000, i);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  ASSERT_GT(bytes.size(), StreamConn::kChunkBytes);
  writeAll(p.peer, bytes);

  std::vector<std::uint8_t> seen;  // first payload byte of each frame
  std::vector<std::size_t> sizes;
  const auto collect = [&seen, &sizes](const wire::FrameView& f) {
    EXPECT_EQ(f.header.type, wire::FrameType::kDataItem);
    seen.push_back(f.payload.front());
    sizes.push_back(f.payload.size());
    return true;
  };
  StreamConn::ReadStatus st = StreamConn::ReadStatus::kOpen;
  for (int i = 0; i < 10 && seen.size() < 3; ++i) st = p.stream.read(collect);
  EXPECT_EQ(st, StreamConn::ReadStatus::kOpen);
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0, 1, 2}));

  // Half a frame waits for the rest.
  const std::vector<std::uint8_t> f = frameOf(500, 9);
  writeAll(p.peer, std::vector<std::uint8_t>(f.begin(), f.begin() + 200));
  EXPECT_EQ(p.stream.read(collect), StreamConn::ReadStatus::kOpen);
  EXPECT_EQ(seen.size(), 3u);
  writeAll(p.peer, std::vector<std::uint8_t>(f.begin() + 200, f.end()));
  EXPECT_EQ(p.stream.read(collect), StreamConn::ReadStatus::kOpen);
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0, 1, 2, 9}));
  EXPECT_EQ(sizes, (std::vector<std::size_t>{30000, 30000, 30000, 500}));
}

TEST(StreamConn, HandlerStopEndsTheReadAndKeepsTheRest) {
  Pair p;
  std::vector<std::uint8_t> bytes;
  for (std::uint8_t i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> f = frameOf(10, i);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  writeAll(p.peer, bytes);
  std::vector<std::uint8_t> seen;
  EXPECT_EQ(p.stream.read([&seen](const wire::FrameView& f) {
              seen.push_back(f.payload.front());
              return false;
            }),
            StreamConn::ReadStatus::kStopped);
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0}));
  // The other two frames are already buffered: the next read hands them
  // over before it asks the kernel for more.
  seen.clear();
  EXPECT_EQ(p.stream.read([&seen](const wire::FrameView& f) {
              seen.push_back(f.payload.front());
              return true;
            }),
            StreamConn::ReadStatus::kOpen);
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{1, 2}));
}

TEST(StreamConn, PeerCloseReportsClosed) {
  Pair p;
  writeAll(p.peer, frameOf(10, 7));
  ::close(p.peer);
  p.peer = -1;
  int frames = 0;
  const auto count = [&frames](const wire::FrameView&) {
    ++frames;
    return true;
  };
  StreamConn::ReadStatus st = p.stream.read(count);
  if (st == StreamConn::ReadStatus::kOpen) st = p.stream.read(count);
  EXPECT_EQ(st, StreamConn::ReadStatus::kClosed);
  EXPECT_EQ(frames, 1);  // the frame before the EOF still arrived
}

TEST(StreamConn, HardErrorsReportClosed) {
  Reactor reactor;
  Pair p;
  const Reactor::FdHandle reg =
      reactor.addFd(p.stream.fd, EPOLLIN, [](std::uint32_t) {});
  // The peer closes with bytes it never read: the kernel resets the
  // connection, so both directions fail hard.
  std::uint64_t calls = 0;
  p.stream.out = frameOf(10, 1);
  ASSERT_TRUE(p.stream.flush(reactor, calls));
  ::close(p.peer);
  p.peer = -1;
  EXPECT_EQ(p.stream.read([](const wire::FrameView&) { return true; }),
            StreamConn::ReadStatus::kClosed);
  p.stream.out = frameOf(10, 2);
  EXPECT_FALSE(p.stream.flush(reactor, calls));
  reactor.removeFd(reg);
}

TEST(StreamConn, CorruptFramingIsReported) {
  Pair p;
  std::vector<std::uint8_t> bad(wire::kHeaderBytes + 8, 0xFF);  // no magic
  writeAll(p.peer, bad);
  EXPECT_EQ(p.stream.read([](const wire::FrameView&) { return true; }),
            StreamConn::ReadStatus::kCorrupt);
}

}  // namespace
}  // namespace mci::live
