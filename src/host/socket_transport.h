// Threaded TCP implementation of the net::Transport seam (DESIGN.md §12).
//
// One SocketTransport per node. The node listens on a TCP port; peers that
// want to send to it connect lazily and keep the connection. Each accepted
// connection gets a blocking reader thread that decodes length-prefixed,
// CRC-framed messages and posts them to the node's EventLoop — so OnFrame
// runs on the node's host thread, exactly as the seam contract requires,
// and protocol code cannot tell this transport from the simulated network.
//
// Wire format, little-endian (wire::Writer/Reader):
//
//   [u32 payload_len][u32 from][u32 to][u16 type][u32 crc32(payload)][payload]
//
// Failure semantics map onto the paper's §1 network model: a connect or
// write error drops the frame (counted in stats().send_failures) and closes
// the connection — the next Send reconnects. A CRC mismatch drops the frame
// at the receiver. Nothing retries at this layer; retransmission is the
// protocol's job (comm buffer §2.3), same as under injected loss in sim.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
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

class SocketTransport final : public net::Transport {
 public:
  // `peers` must outlive the transport and be fully populated before the
  // first Send (the loopback cluster binds every listener, then fills the
  // map, then starts the loops).
  SocketTransport(EventLoop& loop, net::NodeId self, const AddressMap& peers);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Binds 127.0.0.1:`port` (0 = kernel-assigned) and starts the accept
  // thread. Returns the bound port. Must be called before the peer map is
  // sealed.
  std::uint16_t Listen(std::uint16_t port = 0);

  // Stops the accept and reader threads and closes every socket. Frames
  // already handed to the kernel by Send() are NOT revoked — a peer that
  // keeps running still receives them (the conformance suite checks this).
  // Safe while the loop is still running: a Send in progress fails its
  // write, and its connection is closed only after that Send returns.
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
    std::uint64_t send_failures = 0;   // dropped: connect/write error
    std::uint64_t dropped_corrupt = 0;  // dropped: CRC mismatch
    std::uint64_t dropped_node_down = 0;
  };
  Stats stats() const;

 private:
  static constexpr std::size_t kHeaderBytes = 18;
  static constexpr std::uint32_t kMaxPayload = 64u << 20;

  void AcceptLoop(int listen_fd);
  void ReaderLoop(int fd);
  // Returns a connected fd for `to`, reusing the cached connection; -1 on
  // failure. Called on the loop thread only.
  int ConnectTo(net::NodeId to);
  void Deliver(net::Frame frame);

  EventLoop& loop_;
  const net::NodeId self_;
  const AddressMap& peers_;

  // Loop-thread state (handlers, valve): touched only on the loop thread —
  // readers reach it via loop_.Post.
  std::map<net::NodeId, net::FrameHandler*> handlers_;
  std::set<net::NodeId> down_;

  // Cross-thread state.
  mutable std::mutex mu_;
  Stats stats_;
  std::map<net::NodeId, int> conns_;  // outbound, created by Send
  // Sends past the stats update and not yet done with their fd; Shutdown
  // closes conns_ only once this drains to zero.
  int sends_in_flight_ = 0;
  std::condition_variable sends_idle_;
  std::vector<int> accepted_;         // inbound, owned by reader threads
  std::vector<std::thread> readers_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  bool shutdown_ = false;
};

}  // namespace vsr::host
