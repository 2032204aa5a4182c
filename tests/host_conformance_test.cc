// Host-seam conformance: the contracts in host/timer.h and net/transport.h,
// checked against BOTH implementations — the deterministic simulator
// (sim::Scheduler / net::Network) and the real-time host (host::EventLoop /
// host::SocketTransport). Protocol code is written against these contracts
// alone (DESIGN.md §12), so any divergence between the two hosts is a bug
// here, not in the cohorts.
//
// These tests exercise wall-clock timers and real sockets; they are NOT
// part of the deterministic-digest suites and assert no virtual-time
// values.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "host/event_loop.h"
#include "host/socket_transport.h"
#include "host/timer.h"
#include "net/network.h"
#include "net/transport.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "wire/buffer.h"

namespace vsr {
namespace {

// ---------------------------------------------------------------------------
// Timer conformance
// ---------------------------------------------------------------------------

// One host under test: its TimerService plus a way to drive it until a
// predicate holds (stepping virtual time, or waiting wall time).
class HostUnderTest {
 public:
  virtual ~HostUnderTest() = default;
  virtual host::TimerService& timers() = 0;
  virtual bool RunUntil(std::function<bool()> pred) = 0;
  // Bounded settle: long enough for any pending work to land.
  virtual void Settle() = 0;
};

class SimHostUnderTest : public HostUnderTest {
 public:
  host::TimerService& timers() override { return sched_; }
  bool RunUntil(std::function<bool()> pred) override {
    for (int i = 0; i < 100000 && !pred(); ++i) {
      if (sched_.Empty()) break;
      sched_.Step();
    }
    return pred();
  }
  void Settle() override { sched_.RunToQuiescence(); }

 private:
  sim::Scheduler sched_;
};

class RealHostUnderTest : public HostUnderTest {
 public:
  RealHostUnderTest() { loop_.Start(); }
  ~RealHostUnderTest() override { loop_.Stop(); }
  host::TimerService& timers() override { return loop_; }
  bool RunUntil(std::function<bool()> pred) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }
  void Settle() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

 private:
  host::EventLoop loop_;
};

enum class HostKind { kSim, kReal };

class TimerConformance : public ::testing::TestWithParam<HostKind> {
 protected:
  void SetUp() override {
    if (GetParam() == HostKind::kSim) {
      hut_ = std::make_unique<SimHostUnderTest>();
    } else {
      hut_ = std::make_unique<RealHostUnderTest>();
    }
  }
  host::TimerService& T() { return hut_->timers(); }
  std::unique_ptr<HostUnderTest> hut_;
};

TEST_P(TimerConformance, EarlierDeadlinesFireFirst) {
  std::mutex mu;
  std::vector<int> order;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(v);
  };
  std::atomic<int> fired{0};
  // Scheduled out of order on purpose.
  T().After(30 * host::kMillisecond, [&] { push(3); fired++; });
  T().After(10 * host::kMillisecond, [&] { push(1); fired++; });
  T().After(20 * host::kMillisecond, [&] { push(2); fired++; });
  ASSERT_TRUE(hut_->RunUntil([&] { return fired.load() == 3; }));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(TimerConformance, EqualDeadlinesFireInSchedulingOrder) {
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> fired{0};
  const host::Time deadline = T().Now() + 20 * host::kMillisecond;
  for (int i = 0; i < 8; ++i) {
    T().At(deadline, [&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      fired++;
    });
  }
  ASSERT_TRUE(hut_->RunUntil([&] { return fired.load() == 8; }));
  std::lock_guard<std::mutex> lock(mu);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(TimerConformance, ZeroDelayIsStillAsynchronous) {
  // Run the probe ON the host thread: while it executes, a nested After(0)
  // must not fire synchronously (contract point 1).
  std::atomic<bool> nested_fired{false};
  std::atomic<bool> was_async{false};
  std::atomic<bool> done{false};
  T().After(0, [&] {
    T().After(0, [&] { nested_fired = true; });
    was_async = !nested_fired.load();
    done = true;
  });
  ASSERT_TRUE(hut_->RunUntil([&] { return done && nested_fired; }));
  EXPECT_TRUE(was_async.load());
}

TEST_P(TimerConformance, CancelPendingGuaranteesNoFire) {
  std::atomic<bool> cancelled_ran{false};
  std::atomic<bool> sentinel_ran{false};
  host::TimerId id =
      T().After(20 * host::kMillisecond, [&] { cancelled_ran = true; });
  T().Cancel(id);
  // A later sentinel bounds the wait: once it fires, the cancelled timer's
  // deadline has certainly passed.
  T().After(40 * host::kMillisecond, [&] { sentinel_ran = true; });
  ASSERT_TRUE(hut_->RunUntil([&] { return sentinel_ran.load(); }));
  EXPECT_FALSE(cancelled_ran.load());
}

TEST_P(TimerConformance, CancelOfFiredOrUnknownIdIsNoop) {
  std::atomic<bool> ran{false};
  host::TimerId id = T().After(0, [&] { ran = true; });
  ASSERT_TRUE(hut_->RunUntil([&] { return ran.load(); }));
  T().Cancel(id);       // already fired
  T().Cancel(9999999);  // never existed
  T().Cancel(host::kNoTimer);
  std::atomic<bool> after{false};
  T().After(0, [&] { after = true; });  // service still works
  EXPECT_TRUE(hut_->RunUntil([&] { return after.load(); }));
}

TEST_P(TimerConformance, NowInsideCallbackIsAtOrPastDeadline) {
  std::atomic<bool> done{false};
  const host::Time deadline = T().Now() + 15 * host::kMillisecond;
  host::Time observed = 0;
  T().At(deadline, [&] {
    observed = T().Now();
    done = true;
  });
  ASSERT_TRUE(hut_->RunUntil([&] { return done.load(); }));
  EXPECT_GE(observed, deadline);
}

INSTANTIATE_TEST_SUITE_P(BothHosts, TimerConformance,
                         ::testing::Values(HostKind::kSim, HostKind::kReal),
                         [](const auto& info) {
                           return info.param == HostKind::kSim ? "Sim"
                                                               : "Real";
                         });

// ---------------------------------------------------------------------------
// Transport conformance
// ---------------------------------------------------------------------------

class Recorder : public net::FrameHandler {
 public:
  void OnFrame(const net::Frame& frame) override {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(frame);
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }
  net::Frame frame(std::size_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.at(i);
  }

 private:
  mutable std::mutex mu_;
  std::vector<net::Frame> frames_;
};

constexpr net::NodeId kA = 1;
constexpr net::NodeId kB = 2;

// Two nodes, A and B, each with a transport endpoint and a host thread.
class TransportUnderTest {
 public:
  virtual ~TransportUnderTest() = default;
  virtual net::Transport& at(net::NodeId node) = 0;
  // Runs `fn` on the node's host thread and waits (Register/Unregister/
  // SetNodeUp are host-thread operations by contract).
  virtual void OnHostThread(net::NodeId node, std::function<void()> fn) = 0;
  virtual std::uint64_t DroppedNodeDown(net::NodeId node) = 0;
  virtual bool RunUntil(std::function<bool()> pred) = 0;
};

class SimTransportUnderTest : public TransportUnderTest {
 public:
  SimTransportUnderTest() : sim_(1234), net_(sim_, {}) {}
  net::Transport& at(net::NodeId) override { return net_; }
  void OnHostThread(net::NodeId, std::function<void()> fn) override { fn(); }
  std::uint64_t DroppedNodeDown(net::NodeId) override {
    return net_.stats().dropped_node_down;
  }
  bool RunUntil(std::function<bool()> pred) override {
    for (int i = 0; i < 100000 && !pred(); ++i) {
      if (sim_.scheduler().Empty()) break;
      sim_.scheduler().Step();
    }
    return pred();
  }

 private:
  sim::Simulation sim_;
  net::Network net_;
};

class RealTransportUnderTest : public TransportUnderTest {
 public:
  RealTransportUnderTest() {
    for (net::NodeId n : {kA, kB}) {
      auto& node = nodes_[n];
      node.loop = std::make_unique<host::EventLoop>();
      node.transport =
          std::make_unique<host::SocketTransport>(*node.loop, n, addrs_);
      addrs_[n] = host::NodeAddress{"127.0.0.1", node.transport->Listen(0)};
    }
    for (auto& [n, node] : nodes_) node.loop->Start();
  }
  ~RealTransportUnderTest() override {
    for (auto& [n, node] : nodes_) node.transport->Shutdown();
    for (auto& [n, node] : nodes_) node.loop->Stop();
  }
  net::Transport& at(net::NodeId node) override {
    return *nodes_.at(node).transport;
  }
  void OnHostThread(net::NodeId n, std::function<void()> fn) override {
    std::atomic<bool> done{false};
    nodes_.at(n).loop->Post([&] {
      fn();
      done = true;
    });
    while (!done) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::uint64_t DroppedNodeDown(net::NodeId n) override {
    return nodes_.at(n).transport->stats().dropped_node_down;
  }
  bool RunUntil(std::function<bool()> pred) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

 private:
  struct Node {
    std::unique_ptr<host::EventLoop> loop;
    std::unique_ptr<host::SocketTransport> transport;
  };
  host::AddressMap addrs_;
  std::map<net::NodeId, Node> nodes_;
};

class TransportConformance : public ::testing::TestWithParam<HostKind> {
 protected:
  void SetUp() override {
    if (GetParam() == HostKind::kSim) {
      tut_ = std::make_unique<SimTransportUnderTest>();
    } else {
      tut_ = std::make_unique<RealTransportUnderTest>();
    }
  }
  std::unique_ptr<TransportUnderTest> tut_;
};

TEST_P(TransportConformance, DeliversPayloadIntact) {
  Recorder rec;
  tut_->OnHostThread(kB, [&] { tut_->at(kB).Register(kB, &rec); });
  std::vector<std::uint8_t> payload{0x01, 0x02, 0xfe, 0x00, 0x7f};
  tut_->OnHostThread(kA, [&] { tut_->at(kA).Send(kA, kB, 42, payload); });
  ASSERT_TRUE(tut_->RunUntil([&] { return rec.count() == 1; }));
  net::Frame f = rec.frame(0);
  EXPECT_EQ(f.from, kA);
  EXPECT_EQ(f.to, kB);
  EXPECT_EQ(f.type, 42);
  EXPECT_EQ(f.payload, payload);
}

TEST_P(TransportConformance, FramesToUnregisteredNodeAreDropped) {
  const std::uint64_t before = tut_->DroppedNodeDown(kB);
  tut_->OnHostThread(kA, [&] { tut_->at(kA).Send(kA, kB, 7, {1, 2, 3}); });
  EXPECT_TRUE(tut_->RunUntil(
      [&] { return tut_->DroppedNodeDown(kB) > before; }));
}

TEST_P(TransportConformance, UnregisterStopsDelivery) {
  Recorder rec;
  tut_->OnHostThread(kB, [&] { tut_->at(kB).Register(kB, &rec); });
  tut_->OnHostThread(kA, [&] { tut_->at(kA).Send(kA, kB, 7, {1}); });
  ASSERT_TRUE(tut_->RunUntil([&] { return rec.count() == 1; }));

  tut_->OnHostThread(kB, [&] { tut_->at(kB).Unregister(kB); });
  const std::uint64_t before = tut_->DroppedNodeDown(kB);
  tut_->OnHostThread(kA, [&] { tut_->at(kA).Send(kA, kB, 7, {2}); });
  ASSERT_TRUE(tut_->RunUntil(
      [&] { return tut_->DroppedNodeDown(kB) > before; }));
  EXPECT_EQ(rec.count(), 1u);
}

TEST_P(TransportConformance, SetNodeUpValveGatesDelivery) {
  Recorder rec;
  tut_->OnHostThread(kB, [&] {
    tut_->at(kB).Register(kB, &rec);
    tut_->at(kB).SetNodeUp(kB, false);
  });
  const std::uint64_t before = tut_->DroppedNodeDown(kB);
  tut_->OnHostThread(kA, [&] { tut_->at(kA).Send(kA, kB, 7, {1}); });
  ASSERT_TRUE(tut_->RunUntil(
      [&] { return tut_->DroppedNodeDown(kB) > before; }));
  EXPECT_EQ(rec.count(), 0u);

  tut_->OnHostThread(kB, [&] { tut_->at(kB).SetNodeUp(kB, true); });
  tut_->OnHostThread(kA, [&] { tut_->at(kA).Send(kA, kB, 7, {2}); });
  EXPECT_TRUE(tut_->RunUntil([&] { return rec.count() == 1; }));
}

TEST_P(TransportConformance, LocalSendIsAsynchronous) {
  Recorder rec;
  std::atomic<bool> sync_delivery{false};
  std::atomic<bool> sent{false};
  tut_->OnHostThread(kB, [&] {
    tut_->at(kB).Register(kB, &rec);
    tut_->at(kB).Send(kB, kB, 9, {1});
    sync_delivery = rec.count() != 0;  // handler must NOT run inside Send
    sent = true;
  });
  ASSERT_TRUE(tut_->RunUntil([&] { return sent && rec.count() == 1; }));
  EXPECT_FALSE(sync_delivery.load());
}

INSTANTIATE_TEST_SUITE_P(BothHosts, TransportConformance,
                         ::testing::Values(HostKind::kSim, HostKind::kReal),
                         [](const auto& info) {
                           return info.param == HostKind::kSim ? "Sim"
                                                               : "Real";
                         });

// ---------------------------------------------------------------------------
// Socket-host-only behavior
// ---------------------------------------------------------------------------

TEST(SocketTransport, ShutdownDrainsInFlightSends) {
  // Frames handed to the kernel before Shutdown() must still reach a peer
  // that keeps running: Send is a blocking write, so by the time it
  // returns the bytes are queued in the TCP stack, and teardown closes the
  // socket without discarding them.
  host::AddressMap addrs;
  host::EventLoop loop_a, loop_b;
  host::SocketTransport ta(loop_a, kA, addrs);
  host::SocketTransport tb(loop_b, kB, addrs);
  addrs[kA] = host::NodeAddress{"127.0.0.1", ta.Listen(0)};
  addrs[kB] = host::NodeAddress{"127.0.0.1", tb.Listen(0)};
  loop_a.Start();
  loop_b.Start();
  Recorder rec;
  std::atomic<bool> registered{false};
  loop_b.Post([&] {
    tb.Register(kB, &rec);
    registered = true;
  });
  while (!registered) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  constexpr int kFrames = 50;
  std::atomic<bool> all_sent{false};
  loop_a.Post([&] {
    for (int i = 0; i < kFrames; ++i) {
      ta.Send(kA, kB, 3, {static_cast<std::uint8_t>(i)});
    }
    all_sent = true;
  });
  while (!all_sent) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ta.Shutdown();  // sender gone; the 50 frames are already in flight
  loop_a.Stop();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rec.count() < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rec.count(), static_cast<std::size_t>(kFrames));
  tb.Shutdown();
  loop_b.Stop();
}

TEST(SocketTransport, SendToUnreachablePeerIsCountedLoss) {
  // No listener for kB: connect fails, the frame is dropped, and the
  // transport keeps working — loss, not an error (§1 network model).
  host::AddressMap addrs;
  host::EventLoop loop_a;
  host::SocketTransport ta(loop_a, kA, addrs);
  addrs[kA] = host::NodeAddress{"127.0.0.1", ta.Listen(0)};
  addrs[kB] = host::NodeAddress{"127.0.0.1", 1};  // nothing listens here
  loop_a.Start();
  std::atomic<bool> done{false};
  loop_a.Post([&] {
    ta.Send(kA, kB, 3, {1, 2});
    done = true;
  });
  while (!done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ta.stats().send_failures, 1u);
  ta.Shutdown();
  loop_a.Stop();
}

// Polls `pred` every millisecond until it holds or `limit` passes.
bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SocketTransport, StalledPeerDoesNotFreezeSender) {
  // The peer is a listener that never accepts and never reads, with a tiny
  // receive buffer: once the kernel buffers fill, every byte written to it
  // waits forever. Sends to it must still return, the sender's loop must
  // keep firing timers, and the frames past the output queue's bound are
  // counted as lost.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  int small = 4096;
  ::setsockopt(stalled, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(stalled, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(stalled, 1), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(stalled, reinterpret_cast<sockaddr*>(&addr), &len);

  host::AddressMap addrs;
  host::EventLoop loop;
  host::SocketTransport ta(loop, kA, addrs);
  addrs[kA] = host::NodeAddress{"127.0.0.1", ta.Listen(0)};
  addrs[kB] = host::NodeAddress{"127.0.0.1", ntohs(addr.sin_port)};
  loop.Start();

  constexpr int kFrames = 64;  // 64 MiB, far past the per-peer queue bound
  std::atomic<bool> returned{false};
  loop.Post([&] {
    for (int i = 0; i < kFrames; ++i) {
      ta.Send(kA, kB, 3,
              std::vector<std::uint8_t>(1u << 20, static_cast<std::uint8_t>(i)));
    }
    returned = true;
  });
  EXPECT_TRUE(WaitFor([&] { return returned.load(); }, std::chrono::seconds(5)))
      << "Send blocked the loop thread on a peer that does not read";

  std::atomic<bool> fired{false};
  loop.After(20 * host::kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(WaitFor([&] { return fired.load(); },
                      std::chrono::milliseconds(500)))
      << "the sender's timers stalled behind the stuck peer";
  EXPECT_GT(ta.stats().send_failures, 0u);

  const auto t0 = std::chrono::steady_clock::now();
  ta.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  loop.Stop();
  ::close(stalled);
}

// A transport for kB, fed by raw client sockets that play kA: the tests
// write crafted byte streams and check what the frame reader makes of them.
class RawStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    port_ = tb_.Listen(0);
    ASSERT_NE(port_, 0);
    addrs_[kB] = host::NodeAddress{"127.0.0.1", port_};
    loop_.Start();
    std::atomic<bool> registered{false};
    loop_.Post([&] {
      tb_.Register(kB, &rec_);
      registered = true;
    });
    ASSERT_TRUE(WaitFor([&] { return registered.load(); }));
  }
  void TearDown() override {
    for (int fd : clients_) ::close(fd);
    tb_.Shutdown();
    loop_.Stop();
  }

  int Connect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    clients_.push_back(fd);
    return fd;
  }

  // One frame in the transport's wire format, optionally with a bad CRC.
  static std::vector<std::uint8_t> Frame(std::vector<std::uint8_t> payload,
                                         bool corrupt_crc = false) {
    wire::Writer w;
    w.U32(static_cast<std::uint32_t>(payload.size()));
    w.U32(kA);
    w.U32(kB);
    w.U16(7);
    w.U32(wire::Crc32(payload) ^ (corrupt_crc ? 1u : 0u));
    w.Raw(std::span<const std::uint8_t>(payload.data(), payload.size()));
    return w.Take();
  }

  static void Write(int fd, const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  host::AddressMap addrs_;
  host::EventLoop loop_;
  Recorder rec_;
  host::SocketTransport tb_{loop_, kB, addrs_};
  std::uint16_t port_ = 0;
  std::vector<int> clients_;
};

TEST_F(RawStreamTest, FrameSplitByteByByteIsDeliveredOnce) {
  const int fd = Connect();
  const std::vector<std::uint8_t> split = Frame({1, 2, 3, 4, 5});
  for (std::uint8_t b : split) {
    Write(fd, {b});
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  // A whole sentinel frame after it: once it arrives, the split frame has
  // been parsed, exactly once and first.
  Write(fd, Frame({9}));
  ASSERT_TRUE(WaitFor([&] { return rec_.count() == 2; }));
  EXPECT_EQ(rec_.frame(0).payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rec_.frame(0).from, kA);
  EXPECT_EQ(rec_.frame(0).type, 7);
  EXPECT_EQ(rec_.frame(1).payload, (std::vector<std::uint8_t>{9}));
}

TEST_F(RawStreamTest, ManyFramesInOneSegmentAllArriveInOrder) {
  constexpr int kFrames = 200;
  std::vector<std::uint8_t> segment;
  for (int i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> f =
        Frame({static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)});
    segment.insert(segment.end(), f.begin(), f.end());
  }
  Write(Connect(), segment);
  ASSERT_TRUE(WaitFor([&] { return rec_.count() == kFrames; }));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(rec_.frame(static_cast<std::size_t>(i)).payload,
              (std::vector<std::uint8_t>{static_cast<std::uint8_t>(i),
                                         static_cast<std::uint8_t>(i >> 8)}));
  }
}

TEST_F(RawStreamTest, FrameLargerThanTheReadBufferArrivesIntact) {
  std::vector<std::uint8_t> big(3u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 131);
  }
  const int fd = Connect();
  Write(fd, Frame(big));
  Write(fd, Frame({9}));
  ASSERT_TRUE(WaitFor([&] { return rec_.count() == 2; }));
  EXPECT_EQ(rec_.frame(0).payload, big);
  EXPECT_EQ(rec_.frame(1).payload, (std::vector<std::uint8_t>{9}));
}

TEST_F(RawStreamTest, CorruptFrameIsDroppedAndItsNeighboursArrive) {
  std::vector<std::uint8_t> bytes = Frame({1});
  const std::vector<std::uint8_t> bad = Frame({2}, /*corrupt_crc=*/true);
  const std::vector<std::uint8_t> good = Frame({3});
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  bytes.insert(bytes.end(), good.begin(), good.end());
  Write(Connect(), bytes);
  ASSERT_TRUE(WaitFor([&] { return rec_.count() == 2; }));
  EXPECT_EQ(rec_.frame(0).payload, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(rec_.frame(1).payload, (std::vector<std::uint8_t>{3}));
  EXPECT_EQ(tb_.stats().dropped_corrupt, 1u);
}

TEST_F(RawStreamTest, OversizedHeaderTearsDownOnlyThatConnection) {
  const int healthy = Connect();
  const int hostile = Connect();
  // A header announcing a 4 GiB payload: past any legal frame, so the
  // stream cannot be trusted and the transport closes this connection.
  wire::Writer w;
  w.U32(0xffffffffu);
  w.U32(kA);
  w.U32(kB);
  w.U16(7);
  w.U32(0);
  Write(hostile, w.Take());
  timeval limit{5, 0};
  ::setsockopt(hostile, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  std::uint8_t byte;
  const ssize_t r = ::recv(hostile, &byte, 1, 0);
  EXPECT_TRUE(r == 0 || (r < 0 && errno == ECONNRESET))
      << "hostile stream not closed";

  // The other connection from the same peer, and a fresh one, still work.
  Write(healthy, Frame({1}));
  ASSERT_TRUE(WaitFor([&] { return rec_.count() == 1; }));
  Write(Connect(), Frame({2}));
  ASSERT_TRUE(WaitFor([&] { return rec_.count() == 2; }));
  EXPECT_EQ(rec_.frame(0).payload, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(rec_.frame(1).payload, (std::vector<std::uint8_t>{2}));
}

}  // namespace
}  // namespace vsr
