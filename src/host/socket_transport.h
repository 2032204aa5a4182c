// TCP implementation of the net::Transport seam (DESIGN.md §12), run
// entirely on the node's EventLoop thread.
//
// One SocketTransport per node. The node listens on a TCP port, and each
// pair of nodes shares one connection that carries frames both ways, so a
// reply rides the TCP ACK of its request. The first Send to a peer with no
// connection dials it (blocking connect). An accepted connection learns
// its dialer from the `from` field of its first CRC-valid frame and
// becomes the send path to that peer if there is none. When both sides
// dial at once, the pair settles on the connection the lower node id
// dialed; the loser closes once its queue drains. Settling happens only
// at setup, so each link is FIFO once settled.
//
// The listener and every connection are nonblocking fds in the loop's
// epoll set: a readable event drains the socket into the connection's
// buffer, and each complete frame in it is checked and handed to OnFrame
// right there, on the node's host thread, as the seam contract requires.
// The transport starts no thread of its own.
//
// Wire format, little-endian:
//
//   [u32 payload_len][u32 from][u32 to][u16 type][u32 crc32(payload)][payload]
//
// Send writes header and payload with one sendmsg and never blocks: bytes
// the kernel does not take wait in a per-connection queue, flushed when
// the socket turns writable. The queue is bounded (kMaxQueuedBytes); a
// frame that would overflow it is dropped.
//
// Failure semantics map onto the paper's §1 network model: a connect or
// write error, or a full queue, drops the frame (counted in
// stats().send_failures), and an error or the peer's close ends the
// connection — the next Send dials again. A CRC mismatch drops the frame
// at the receiver; a header announcing more than kMaxPayload bytes closes
// that connection. Nothing retries at this layer; retransmission is the
// protocol's job (comm buffer §2.3), same as under injected loss in sim.
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

  // Closes the listener and ends every connection, on the loop thread while
  // the loop runs (this call waits for it) and inline otherwise. Frames
  // already handed to the kernel are NOT revoked — a peer that keeps
  // running still receives them (the conformance suite checks this);
  // queued bytes get one last nonblocking flush. Each connection is
  // half-closed and its fd stays open until destruction: closing a socket
  // that holds unread bytes sends a reset, and a reset discards what the
  // kernel has not sent yet. Later sends count as failures. Do not race it
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
    std::uint64_t dials = 0;        // connections this node dialed
    std::uint64_t connections = 0;  // open now, dialed or accepted
  };
  // Safe from any thread.
  Stats stats() const;

 private:
  static constexpr std::size_t kHeaderBytes = 18;
  static constexpr std::uint32_t kMaxPayload = 64u << 20;
  // Unsent bytes one connection may hold. An empty queue still admits one
  // frame of any size, so no legal frame is unsendable.
  static constexpr std::size_t kMaxQueuedBytes = 4u << 20;

  // A frame the kernel has not fully taken; `sent` bytes of it went out.
  struct Pending {
    std::array<std::uint8_t, kHeaderBytes> header;
    std::vector<std::uint8_t> payload;
    std::size_t sent = 0;
  };

  static constexpr net::NodeId kUnknownPeer = ~net::NodeId{0};

  // One TCP connection, dialed or accepted: its read buffer and its output
  // queue. It owns the fd.
  struct Conn final : IoHandler {
    Conn(SocketTransport& t, int fd, net::NodeId peer)
        : transport(t), fd(fd), peer(peer), dialed(peer != kUnknownPeer) {}
    ~Conn();
    Conn(const Conn&) = delete;
    void OnIo(std::uint32_t events) override {
      transport.OnConnIo(*this, events);
    }
    SocketTransport& transport;
    const int fd;
    net::NodeId peer;  // kUnknownPeer until an accepted one's first frame
    const bool dialed;
    // Lost a crossed dial: half-closed once its queue drains, then closed on
    // the peer's EOF, so no unread byte turns the close into a reset.
    bool retiring = false;
    std::vector<std::uint8_t> buf;
    std::size_t begin = 0, end = 0;  // unparsed bytes are buf[begin, end)
    std::deque<Pending> queue;
    std::size_t queued_bytes = 0;  // unsent bytes across `queue`
  };

  struct Counters {
    std::atomic<std::uint64_t> frames_sent{0}, frames_delivered{0},
        bytes_sent{0}, send_failures{0}, dropped_corrupt{0},
        dropped_node_down{0}, dials{0}, connections{0};
  };

  // The listener is readable: accept every pending connection.
  void OnIo(std::uint32_t events) override;
  Conn& Open(int fd, net::NodeId peer);
  void OnConnIo(Conn& c, std::uint32_t events);
  // Reads and delivers until the socket is empty. False once `c` is gone
  // (closed on EOF, an error or a malformed header).
  bool OnReadable(Conn& c);
  // Delivers every complete frame in `c`'s buffer. False once `c` is gone,
  // or the transport was shut down from OnFrame.
  bool ParseFrames(Conn& c);
  // `c`'s first valid frame names its dialer: settle the send path to it.
  void Learn(Conn& c, net::NodeId peer);
  void Deliver(const net::Frame& frame);

  // The send path to `to`, dialing (blocking) if there is none; null on
  // failure.
  Conn* ConnectTo(net::NodeId to);
  // Writes queued bytes until the queue empties or the kernel pushes back.
  // False if the write failed; the caller's OnConnIo closes the connection
  // on the error, which epoll reports, so a Send from inside OnFrame never
  // frees the connection being parsed.
  bool Flush(Conn& c);
  // Closes the connection; its queued frames count as lost.
  void Close(Conn& c);
  void Teardown();

  EventLoop& loop_;
  const net::NodeId self_;
  const AddressMap& peers_;

  // Loop-thread state (inline before the loop starts and after it stops).
  std::map<net::NodeId, net::FrameHandler*> handlers_;
  std::set<net::NodeId> down_;
  std::map<int, std::unique_ptr<Conn>> conns_;  // by fd
  std::map<net::NodeId, Conn*> send_to_;         // the send path, by peer
  int listen_fd_ = -1;
  bool shutdown_ = false;

  Counters stats_;
};

}  // namespace vsr::host
