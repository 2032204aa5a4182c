#include "host/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
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

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

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
      auto in = std::make_unique<Inbound>(*this, fd);
      in->buf.resize(kReadChunk);
      loop_.Watch(fd, EPOLLIN, in.get());
      inbound_[fd] = std::move(in);
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (!WouldBlock(errno)) loop_.Unwatch(listen_fd_, this);  // stop accepting
    return;
  }
}

void SocketTransport::OnReadable(Inbound& in) {
  for (;;) {
    if (in.begin == in.end) in.begin = in.end = 0;  // all parsed
    if (in.buf.size() - in.end < kReadChunk) {
      // Slide the partial frame to the front and make room for a full read.
      std::memmove(in.buf.data(), in.buf.data() + in.begin, in.end - in.begin);
      in.end -= in.begin;
      in.begin = 0;
      in.buf.resize(in.end + kReadChunk);
    }
    const std::size_t room = in.buf.size() - in.end;
    const ssize_t r = ::recv(in.fd, in.buf.data() + in.end, room, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && WouldBlock(errno)) return;
    if (r <= 0) {  // EOF or error: the peer's connection is gone
      CloseInbound(in);
      return;
    }
    in.end += static_cast<std::size_t>(r);
    if (!ParseFrames(in)) return;
    // A short read emptied the socket; the next readiness event brings more.
    if (static_cast<std::size_t>(r) < room) return;
  }
}

bool SocketTransport::ParseFrames(Inbound& in) {
  while (in.end - in.begin >= kHeaderBytes) {
    wire::Reader r(std::span<const std::uint8_t>(in.buf.data() + in.begin,
                                                 in.end - in.begin));
    const std::uint32_t len = r.U32();
    if (len > kMaxPayload) {  // malformed stream: tear the link down
      CloseInbound(in);
      return false;
    }
    if (in.end - in.begin < kHeaderBytes + len) return true;  // partial
    net::Frame frame;
    frame.from = r.U32();
    frame.to = r.U32();
    frame.type = r.U16();
    const std::uint32_t crc = r.U32();
    const std::span<const std::uint8_t> payload(
        in.buf.data() + in.begin + kHeaderBytes, len);
    in.begin += kHeaderBytes + len;
    if (wire::Crc32(payload) != crc) {
      Bump(stats_.dropped_corrupt);
      continue;  // corruption is loss, not teardown (contract point 2)
    }
    frame.payload.assign(payload.begin(), payload.end());
    Deliver(frame);
    if (shutdown_) return false;  // OnFrame shut the transport down
  }
  return true;
}

void SocketTransport::CloseInbound(Inbound& in) {
  const int fd = in.fd;
  loop_.Unwatch(fd, &in);
  ::close(fd);
  inbound_.erase(fd);  // destroys `in`
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

SocketTransport::Outbound* SocketTransport::ConnectTo(net::NodeId to) {
  auto it = outbound_.find(to);
  if (it != outbound_.end()) return it->second.get();
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
  SetNoDelay(fd);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  auto out = std::make_unique<Outbound>(*this, to, fd);
  // Nothing is read from an outbound connection; the peer hanging up is
  // the only input, and EPOLLOUT is armed only while bytes wait.
  loop_.Watch(fd, EPOLLRDHUP, out.get());
  return (outbound_[to] = std::move(out)).get();
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
  Outbound* out = shutdown_ ? nullptr : ConnectTo(to);
  if (out == nullptr) {
    Bump(stats_.send_failures);  // connect failure = a lost frame (§1)
    return;
  }
  const std::size_t frame_bytes = kHeaderBytes + payload.size();
  if (!out->queue.empty() &&
      out->queued_bytes + frame_bytes > kMaxQueuedBytes) {
    Bump(stats_.send_failures);  // the peer is not draining: loss (§1)
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
  const bool idle = out->queue.empty();
  out->queued_bytes += frame_bytes;
  out->queue.push_back(std::move(frame));
  // A busy queue already waits for EPOLLOUT, and the frame must go behind
  // it; an idle one is written now, and only what the kernel leaves over
  // waits.
  if (idle && Flush(*out) && !out->queue.empty()) {
    loop_.Modify(out->fd, EPOLLOUT | EPOLLRDHUP, out);
  }
}

void SocketTransport::OnWritable(Outbound& out, std::uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0) {
    DropOutbound(out);
    return;
  }
  if (Flush(out) && out.queue.empty()) {
    loop_.Modify(out.fd, EPOLLRDHUP, &out);
  }
}

bool SocketTransport::Flush(Outbound& out) {
  while (!out.queue.empty()) {
    iovec iov[2 * kFlushFrames];
    std::size_t n_iov = 0;
    for (std::size_t i = 0; i < out.queue.size() && i < kFlushFrames; ++i) {
      Pending& p = out.queue[i];
      if (p.sent < kHeaderBytes) {
        iov[n_iov++] = {p.header.data() + p.sent, kHeaderBytes - p.sent};
      }
      const std::size_t off = p.sent > kHeaderBytes ? p.sent - kHeaderBytes : 0;
      if (off < p.payload.size()) {
        iov[n_iov++] = {p.payload.data() + off, p.payload.size() - off};
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(out.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && WouldBlock(errno)) return true;
    if (n < 0) {
      DropOutbound(out);
      return false;
    }
    std::size_t left = static_cast<std::size_t>(n);
    out.queued_bytes -= left;
    while (left > 0) {
      Pending& p = out.queue.front();
      const std::size_t take =
          std::min(left, kHeaderBytes + p.payload.size() - p.sent);
      p.sent += take;
      left -= take;
      if (p.sent == kHeaderBytes + p.payload.size()) out.queue.pop_front();
    }
  }
  return true;
}

void SocketTransport::DropOutbound(Outbound& out) {
  Bump(stats_.send_failures, out.queue.size());
  const int fd = out.fd;
  loop_.Unwatch(fd, &out);
  ::close(fd);
  outbound_.erase(out.peer);  // destroys `out`
}

SocketTransport::Stats SocketTransport::stats() const {
  Stats s;
  s.frames_sent = stats_.frames_sent.load(std::memory_order_relaxed);
  s.frames_delivered = stats_.frames_delivered.load(std::memory_order_relaxed);
  s.bytes_sent = stats_.bytes_sent.load(std::memory_order_relaxed);
  s.send_failures = stats_.send_failures.load(std::memory_order_relaxed);
  s.dropped_corrupt = stats_.dropped_corrupt.load(std::memory_order_relaxed);
  s.dropped_node_down =
      stats_.dropped_node_down.load(std::memory_order_relaxed);
  return s;
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
  while (!inbound_.empty()) CloseInbound(*inbound_.begin()->second);
  while (!outbound_.empty()) {
    Outbound& out = *outbound_.begin()->second;
    if (Flush(out)) DropOutbound(out);
  }
}

}  // namespace vsr::host
