#include "host/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "wire/buffer.h"

namespace vsr::host {

namespace {

// Free room an inbound buffer offers each recv; it starts at this size and
// grows only to hold a frame larger than it.
constexpr std::size_t kReadChunk = 64 * 1024;
// Pending frames written by one sendmsg while flushing a queue.
constexpr std::size_t kFlushFrames = 32;

bool WouldBlock(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

void PutLe(std::uint8_t* p, std::uint32_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void Bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

SocketTransport::SocketTransport(EventLoop& loop, net::NodeId self,
                                 const AddressMap& peers)
    : loop_(loop), self_(self), peers_(peers) {}

SocketTransport::~SocketTransport() { Shutdown(); }

std::uint16_t SocketTransport::Listen(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return 0;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  loop_.Watch(listen_fd_, EPOLLIN, this);
  return ntohs(addr.sin_port);
}

void SocketTransport::OnIo(std::uint32_t /*events*/) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      Open(fd, kUnknownPeer);
    } else if (errno != EINTR && errno != ECONNABORTED) {
      // A hard error stops accepting; EAGAIN waits for the next readiness.
      if (!WouldBlock(errno)) loop_.Unwatch(listen_fd_, this);
      return;
    }
  }
}

SocketTransport::Conn::~Conn() { ::close(fd); }

SocketTransport::Conn& SocketTransport::Open(int fd, net::NodeId peer) {
  int one = 1;  // replies go out at once, not behind the peer's next ACK
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto c = std::make_unique<Conn>(*this, fd, peer);
  c->buf.resize(kReadChunk);
  // EPOLLOUT is armed only while bytes wait.
  loop_.Watch(fd, EPOLLIN, c.get());
  Bump(stats_.connections);
  return *(conns_[fd] = std::move(c));
}

void SocketTransport::OnConnIo(Conn& c, std::uint32_t events) {
  if ((events & ~EPOLLOUT) != 0 && !OnReadable(c)) return;
  if ((events & EPOLLOUT) == 0) return;
  if (!Flush(c)) {
    Close(c);
  } else if (c.queue.empty()) {
    loop_.Modify(c.fd, EPOLLIN, &c);
    if (c.retiring) ::shutdown(c.fd, SHUT_WR);
  }
}

bool SocketTransport::OnReadable(Conn& c) {
  for (;;) {
    if (c.begin == c.end) c.begin = c.end = 0;  // all parsed
    if (c.buf.size() - c.end < kReadChunk) {
      // Slide the partial frame to the front and make room for a full read.
      std::memmove(c.buf.data(), c.buf.data() + c.begin, c.end - c.begin);
      c.end -= c.begin;
      c.begin = 0;
      c.buf.resize(c.end + kReadChunk);
    }
    const std::size_t room = c.buf.size() - c.end;
    const ssize_t r = ::recv(c.fd, c.buf.data() + c.end, room, MSG_DONTWAIT);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && WouldBlock(errno)) return true;
    if (r <= 0) {  // EOF or error: the peer's end is gone
      Close(c);
      return false;
    }
    c.end += static_cast<std::size_t>(r);
    if (!ParseFrames(c)) return false;
    // A short read emptied the socket; the next readiness event brings more.
    if (static_cast<std::size_t>(r) < room) return true;
  }
}

bool SocketTransport::ParseFrames(Conn& c) {
  while (c.end - c.begin >= kHeaderBytes) {
    wire::Reader r(std::span<const std::uint8_t>(c.buf.data() + c.begin,
                                                 c.end - c.begin));
    const std::uint32_t len = r.U32();
    if (len > kMaxPayload) {  // malformed stream: tear the link down
      Close(c);
      return false;
    }
    if (c.end - c.begin < kHeaderBytes + len) return true;  // partial
    net::Frame frame;
    frame.from = r.U32();
    frame.to = r.U32();
    frame.type = r.U16();
    const std::uint32_t crc = r.U32();
    const std::span<const std::uint8_t> payload(
        c.buf.data() + c.begin + kHeaderBytes, len);
    c.begin += kHeaderBytes + len;
    if (wire::Crc32(payload) != crc) {
      Bump(stats_.dropped_corrupt);
      continue;  // corruption is loss, not teardown (contract point 2)
    }
    if (c.peer == kUnknownPeer) Learn(c, frame.from);
    frame.payload.assign(payload.begin(), payload.end());
    Deliver(frame);
    if (shutdown_) return false;  // OnFrame shut the transport down
  }
  return true;
}

void SocketTransport::Learn(Conn& c, net::NodeId peer) {
  c.peer = peer;
  Conn*& path = send_to_[peer];
  // Crossed dials settle on the connection the lower id dialed. A newer
  // accepted connection replaces an older one: its dialer dials only after
  // dropping its previous connection.
  if (path != nullptr && path->dialed) {
    if (self_ < peer) return;
    path->retiring = true;
    if (path->queue.empty()) ::shutdown(path->fd, SHUT_WR);
  }
  path = &c;
}

void SocketTransport::Deliver(const net::Frame& frame) {
  auto it = handlers_.find(frame.to);
  if (it == handlers_.end() || down_.count(frame.to) != 0) {
    Bump(stats_.dropped_node_down);
    return;
  }
  Bump(stats_.frames_delivered);
  it->second->OnFrame(frame);
}

void SocketTransport::Register(net::NodeId node, net::FrameHandler* handler) {
  handlers_[node] = handler;
}

void SocketTransport::Unregister(net::NodeId node) { handlers_.erase(node); }

void SocketTransport::SetNodeUp(net::NodeId node, bool up) {
  if (up) {
    down_.erase(node);
  } else {
    down_.insert(node);
  }
}

SocketTransport::Conn* SocketTransport::ConnectTo(net::NodeId to) {
  auto it = send_to_.find(to);
  if (it != send_to_.end()) return it->second;
  auto addr_it = peers_.find(to);
  if (addr_it == peers_.end()) return nullptr;

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(addr_it->second.port);
  ::inet_pton(AF_INET, addr_it->second.ip.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  Bump(stats_.dials);
  return send_to_[to] = &Open(fd, to);
}

void SocketTransport::Send(net::NodeId from, net::NodeId to,
                           std::uint16_t type,
                           std::vector<std::uint8_t> payload) {
  Bump(stats_.frames_sent);
  Bump(stats_.bytes_sent, payload.size() + kHeaderBytes);
  if (to == self_) {
    // Local delivery skips the wire but stays asynchronous: the handler
    // never runs inside Send() (contract point 3).
    loop_.Post([this, f = net::Frame{from, to, type, std::move(payload)}] {
      Deliver(f);
    });
    return;
  }
  Conn* c = shutdown_ ? nullptr : ConnectTo(to);
  const std::size_t frame_bytes = kHeaderBytes + payload.size();
  // A failed dial, or a peer that is not draining its queue: loss (§1).
  if (c == nullptr || (!c->queue.empty() &&
                       c->queued_bytes + frame_bytes > kMaxQueuedBytes)) {
    Bump(stats_.send_failures);
    return;
  }

  Pending frame;
  std::uint8_t* h = frame.header.data();
  PutLe(h, static_cast<std::uint32_t>(payload.size()), 4);
  PutLe(h + 4, from, 4);
  PutLe(h + 8, to, 4);
  PutLe(h + 12, type, 2);
  PutLe(h + 14, wire::Crc32(payload), 4);
  frame.payload = std::move(payload);
  const bool idle = c->queue.empty();
  c->queued_bytes += frame_bytes;
  c->queue.push_back(std::move(frame));
  // A busy queue already waits for EPOLLOUT, and the frame must go behind
  // it; an idle one is written now, and only what the kernel leaves over
  // (or a write error, which OnConnIo then meets) waits.
  if (idle && (!Flush(*c) || !c->queue.empty())) {
    loop_.Modify(c->fd, EPOLLIN | EPOLLOUT, c);
  }
}

bool SocketTransport::Flush(Conn& c) {
  while (!c.queue.empty()) {
    iovec iov[2 * kFlushFrames];
    std::size_t n_iov = 0;
    for (std::size_t i = 0; i < c.queue.size() && i < kFlushFrames; ++i) {
      Pending& p = c.queue[i];
      if (p.sent < kHeaderBytes) {
        iov[n_iov++] = {p.header.data() + p.sent, kHeaderBytes - p.sent};
      }
      const std::size_t off = p.sent > kHeaderBytes ? p.sent - kHeaderBytes : 0;
      if (off < p.payload.size()) {
        iov[n_iov++] = {p.payload.data() + off, p.payload.size() - off};
      }
    }
    const msghdr msg{.msg_iov = iov, .msg_iovlen = n_iov};
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) return WouldBlock(errno);
    std::size_t left = static_cast<std::size_t>(n);
    c.queued_bytes -= left;
    while (left > 0) {
      Pending& p = c.queue.front();
      const std::size_t take =
          std::min(left, kHeaderBytes + p.payload.size() - p.sent);
      p.sent += take;
      left -= take;
      if (p.sent == kHeaderBytes + p.payload.size()) c.queue.pop_front();
    }
  }
  return true;
}

void SocketTransport::Close(Conn& c) {
  Bump(stats_.send_failures, c.queue.size());
  stats_.connections.fetch_sub(1, std::memory_order_relaxed);
  auto path = send_to_.find(c.peer);
  if (path != send_to_.end() && path->second == &c) send_to_.erase(path);
  const int fd = c.fd;
  loop_.Unwatch(fd, &c);
  conns_.erase(fd);  // destroys `c`, closing its fd
}

SocketTransport::Stats SocketTransport::stats() const {
  const auto get = [](const std::atomic<std::uint64_t>& n) {
    return n.load(std::memory_order_relaxed);
  };
  return Stats{get(stats_.frames_sent), get(stats_.frames_delivered),
               get(stats_.bytes_sent), get(stats_.send_failures),
               get(stats_.dropped_corrupt), get(stats_.dropped_node_down),
               get(stats_.dials), get(stats_.connections)};
}

void SocketTransport::Shutdown() {
  if (loop_.OnLoopThread() || !loop_.Running()) {
    Teardown();
    return;
  }
  std::promise<void> done;
  loop_.Post([&] {
    Teardown();
    done.set_value();
  });
  done.get_future().wait();
}

void SocketTransport::Teardown() {
  if (shutdown_) return;
  shutdown_ = true;
  if (listen_fd_ >= 0) {
    loop_.Unwatch(listen_fd_, this);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Half-close each connection: its FIN follows every byte the kernel
  // holds, and the fd closes when the transport is destroyed.
  for (auto& [fd, c] : conns_) {
    Flush(*c);
    Bump(stats_.send_failures, c->queue.size());
    loop_.Unwatch(fd, c.get());
    ::shutdown(fd, SHUT_WR);
  }
  send_to_.clear();
  stats_.connections = 0;
}

}  // namespace vsr::host
