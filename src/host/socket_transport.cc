#include "host/socket_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "wire/buffer.h"

namespace vsr::host {

namespace {

// Reads exactly n bytes; false on EOF/error (connection torn down).
bool ReadFully(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool WriteFully(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r <= 0) return false;
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

SocketTransport::SocketTransport(EventLoop& loop, net::NodeId self,
                                 const AddressMap& peers)
    : loop_(loop), self_(self), peers_(peers) {}

SocketTransport::~SocketTransport() { Shutdown(); }

std::uint16_t SocketTransport::Listen(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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
  // The accept thread gets the fd by value: Shutdown writes listen_fd_
  // under the mutex, and the thread must not read the member unlocked.
  acceptor_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return ntohs(addr.sin_port);
}

void SocketTransport::AcceptLoop(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // listener closed by Shutdown
    SetNoDelay(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      ::close(fd);
      return;
    }
    accepted_.push_back(fd);
    readers_.emplace_back([this, fd] { ReaderLoop(fd); });
  }
}

void SocketTransport::ReaderLoop(int fd) {
  std::uint8_t header[kHeaderBytes];
  for (;;) {
    if (!ReadFully(fd, header, kHeaderBytes)) break;
    wire::Reader r(std::span<const std::uint8_t>(header, kHeaderBytes));
    const std::uint32_t len = r.U32();
    net::Frame frame;
    frame.from = r.U32();
    frame.to = r.U32();
    frame.type = r.U16();
    const std::uint32_t crc = r.U32();
    if (len > kMaxPayload) break;  // malformed stream: tear the link down
    frame.payload.resize(len);
    if (len != 0 && !ReadFully(fd, frame.payload.data(), len)) break;
    if (wire::Crc32(frame.payload) != crc) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.dropped_corrupt;
      continue;  // corruption is loss, not teardown (contract point 2)
    }
    loop_.Post([this, f = std::move(frame)]() mutable { Deliver(std::move(f)); });
  }
  {
    // Drop our fd from the shutdown list before closing: the fd number may
    // be recycled, and Shutdown must never shut down a stranger's socket.
    std::lock_guard<std::mutex> lock(mu_);
    accepted_.erase(std::remove(accepted_.begin(), accepted_.end(), fd),
                    accepted_.end());
  }
  ::close(fd);
}

void SocketTransport::Deliver(net::Frame frame) {
  auto it = handlers_.find(frame.to);
  if (it == handlers_.end() || down_.count(frame.to) != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dropped_node_down;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_delivered;
  }
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

int SocketTransport::ConnectTo(net::NodeId to) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return -1;
    auto it = conns_.find(to);
    if (it != conns_.end()) return it->second;
  }
  auto addr_it = peers_.find(to);
  if (addr_it == peers_.end()) return -1;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(addr_it->second.port);
  ::inet_pton(AF_INET, addr_it->second.ip.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  SetNoDelay(fd);
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    ::close(fd);
    return -1;
  }
  conns_[to] = fd;
  return fd;
}

void SocketTransport::Send(net::NodeId from, net::NodeId to,
                           std::uint16_t type,
                           std::vector<std::uint8_t> payload) {
  const bool local = to == self_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_sent;
    stats_.bytes_sent += payload.size() + kHeaderBytes;
    if (!local) ++sends_in_flight_;
  }
  if (local) {
    // Local delivery skips the wire but stays asynchronous: the handler
    // never runs inside Send() (contract point 3).
    net::Frame frame{from, to, type, std::move(payload)};
    loop_.Post([this, f = std::move(frame)]() mutable { Deliver(std::move(f)); });
    return;
  }

  wire::Writer w;
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U32(from);
  w.U32(to);
  w.U16(type);
  w.U32(wire::Crc32(payload));
  w.Raw(std::span<const std::uint8_t>(payload.data(), payload.size()));
  const std::vector<std::uint8_t>& buf = w.data();

  const int fd = ConnectTo(to);
  const bool sent = fd >= 0 && WriteFully(fd, buf.data(), buf.size());
  std::lock_guard<std::mutex> lock(mu_);
  if (!sent) {
    // Connect/write failure = a lost frame (§1 network model). Drop the
    // cached connection so the next Send reconnects.
    auto it = conns_.find(to);
    if (it != conns_.end()) {
      ::close(it->second);
      conns_.erase(it);
    }
    ++stats_.send_failures;
  }
  if (--sends_in_flight_ == 0 && shutdown_) sends_idle_.notify_all();
}

SocketTransport::Stats SocketTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SocketTransport::Shutdown() {
  std::thread acceptor;
  std::vector<std::thread> readers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (int fd : accepted_) ::shutdown(fd, SHUT_RDWR);  // readers close them
    accepted_.clear();
    // A Send on the loop thread may be inside WriteFully on a cached fd.
    // Shutting the socket down fails that write at once; closing it (and
    // freeing the fd number for reuse) waits until no Send can touch it.
    for (auto& [node, fd] : conns_) ::shutdown(fd, SHUT_RDWR);
    sends_idle_.wait(lock, [this] { return sends_in_flight_ == 0; });
    for (auto& [node, fd] : conns_) ::close(fd);
    conns_.clear();
    acceptor = std::move(acceptor_);
    readers = std::move(readers_);
  }
  if (acceptor.joinable()) acceptor.join();
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
}

}  // namespace vsr::host
