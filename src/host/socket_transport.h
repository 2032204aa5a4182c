// TCP implementation of the net::Transport seam (DESIGN.md §12), run
// entirely on the node's EventLoop thread.
//
// One SocketTransport per node. The node listens on a TCP port; peers that
// want to send to it connect lazily and keep the connection. The listener
// and every accepted connection are nonblocking fds in the loop's epoll
// set: a readable event drains the socket into the connection's buffer,
// and each complete frame in it is checked and handed to OnFrame right
// there, on the node's host thread, as the seam contract requires. The
// transport starts no thread of its own.
//
// Wire format, little-endian:
//
//   [u32 payload_len][u32 from][u32 to][u16 type][u32 crc32(payload)][payload]
//
// Send writes header and payload with one sendmsg and never blocks: bytes
// the kernel does not take wait in a per-peer queue, flushed when the
// socket turns writable. The queue is bounded (kMaxQueuedBytes); a frame
// that would overflow it is dropped.
//
// Failure semantics map onto the paper's §1 network model: a connect or
// write error, or a full queue, drops the frame (counted in
// stats().send_failures), and an error closes the connection — the next
// Send reconnects. A CRC mismatch drops the frame at the receiver; a
// header announcing more than kMaxPayload bytes closes that connection.
// Nothing retries at this layer; retransmission is the protocol's job
// (comm buffer §2.3), same as under injected loss in sim.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "host/event_loop.h"
#include "net/transport.h"

namespace vsr::host {

struct NodeAddress {
  std::string ip = "127.0.0.1";
  std::uint16_t port = 0;
};

// Shared, written only during cluster setup (before any node starts), read
// concurrently afterwards.
using AddressMap = std::map<net::NodeId, NodeAddress>;

class SocketTransport final : public net::Transport, private IoHandler {
 public:
  // `peers` must outlive the transport and be fully populated before the
  // first Send (the loopback cluster binds every listener, then fills the
  // map, then starts the loops).
  SocketTransport(EventLoop& loop, net::NodeId self, const AddressMap& peers);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 = kernel-assigned) and watches the listener
  // on the loop. Returns the bound port. Call before the loop starts (the
  // peer map is sealed after every node listened).
  std::uint16_t Listen(std::uint16_t port = 0);

  // Closes the listener and every connection, on the loop thread while the
  // loop runs (this call waits for it) and inline otherwise. Frames already
  // handed to the kernel are NOT revoked — a peer that keeps running still
  // receives them (the conformance suite checks this); queued bytes get one
  // last nonblocking flush. Later sends count as failures. Do not race it
  // with EventLoop::Stop.
  void Shutdown();

  // net::Transport -------------------------------------------------------
  void Register(net::NodeId node, net::FrameHandler* handler) override;
  void Unregister(net::NodeId node) override;
  void Send(net::NodeId from, net::NodeId to, std::uint16_t type,
            std::vector<std::uint8_t> payload) override;
  void SetNodeUp(net::NodeId node, bool up) override;

  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_delivered = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t send_failures = 0;   // dropped: connect/write error, full queue
    std::uint64_t dropped_corrupt = 0;  // dropped: CRC mismatch
    std::uint64_t dropped_node_down = 0;
  };
  // Safe from any thread.
  Stats stats() const;

 private:
  static constexpr std::size_t kHeaderBytes = 18;
  static constexpr std::uint32_t kMaxPayload = 64u << 20;
  // Unsent bytes one peer may hold. An empty queue still admits one frame
  // of any size, so no legal frame is unsendable.
  static constexpr std::size_t kMaxQueuedBytes = 4u << 20;

  // An accepted connection: bytes read but not yet parsed into frames.
  struct Inbound final : IoHandler {
    Inbound(SocketTransport& t, int fd) : transport(t), fd(fd) {}
    void OnIo(std::uint32_t) override { transport.OnReadable(*this); }
    SocketTransport& transport;
    const int fd;
    std::vector<std::uint8_t> buf;
    std::size_t begin = 0, end = 0;  // unparsed bytes are buf[begin, end)
  };

  // A frame the kernel has not fully taken; `sent` bytes of it went out.
  struct Pending {
    std::array<std::uint8_t, kHeaderBytes> header;
    std::vector<std::uint8_t> payload;
    std::size_t sent = 0;
  };

  // The cached connection to one peer and its output queue.
  struct Outbound final : IoHandler {
    Outbound(SocketTransport& t, net::NodeId peer, int fd)
        : transport(t), peer(peer), fd(fd) {}
    void OnIo(std::uint32_t events) override {
      transport.OnWritable(*this, events);
    }
    SocketTransport& transport;
    const net::NodeId peer;
    const int fd;
    std::deque<Pending> queue;
    std::size_t queued_bytes = 0;  // unsent bytes across `queue`
  };

  struct Counters {
    std::atomic<std::uint64_t> frames_sent{0}, frames_delivered{0},
        bytes_sent{0}, send_failures{0}, dropped_corrupt{0},
        dropped_node_down{0};
  };

  // The listener is readable: accept every pending connection.
  void OnIo(std::uint32_t events) override;
  void OnReadable(Inbound& in);
  // Delivers every complete frame in `in`'s buffer. False once `in` is
  // gone (closed on a malformed header, or by a Shutdown from OnFrame).
  bool ParseFrames(Inbound& in);
  void CloseInbound(Inbound& in);
  void Deliver(const net::Frame& frame);

  // The cached connection to `to`, connecting (blocking) on first use;
  // null on failure.
  Outbound* ConnectTo(net::NodeId to);
  void OnWritable(Outbound& out, std::uint32_t events);
  // Writes queued bytes until the queue empties or the kernel pushes back.
  // False if the write failed and the connection was dropped.
  bool Flush(Outbound& out);
  // Closes the connection; its queued frames count as lost.
  void DropOutbound(Outbound& out);
  void Teardown();

  EventLoop& loop_;
  const net::NodeId self_;
  const AddressMap& peers_;

  // Loop-thread state (inline before the loop starts and after it stops).
  std::map<net::NodeId, net::FrameHandler*> handlers_;
  std::set<net::NodeId> down_;
  std::map<int, std::unique_ptr<Inbound>> inbound_;             // by fd
  std::map<net::NodeId, std::unique_ptr<Outbound>> outbound_;  // by peer
  int listen_fd_ = -1;
  bool shutdown_ = false;

  Counters stats_;
};

}  // namespace vsr::host
