#include "baseline/voting.h"

namespace vsr::baseline {
namespace {

// Wire formats (tiny, local to the voting protocol).
struct VoteReq {
  std::uint64_t req_id = 0;
  net::NodeId reply_to = 0;
  std::string key;
  std::string value;         // writes
  std::uint64_t version = 0; // writes
  std::uint64_t client = 0;  // lock owner identity

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.req_id, m.reply_to, m.key, m.value, m.version, m.client);
  }
};

struct VoteReply {
  std::uint64_t req_id = 0;
  bool ok = false;
  std::string value;
  std::uint64_t version = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.req_id, m.ok, m.value, m.version);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

VotingReplica::VotingReplica(sim::Simulation& simulation,
                             net::Network& network, net::NodeId self)
    : sim_(simulation), net_(network), self_(self) {
  net_.Register(self_, this);
}

void VotingReplica::OnFrame(const net::Frame& frame) {
  wire::Reader r(frame.payload);
  VoteReq m = r.Read<VoteReq>();
  if (!r.ok()) return;
  VoteReply reply;
  reply.req_id = m.req_id;
  switch (static_cast<VoteMsgType>(frame.type)) {
    case VoteMsgType::kLockReq: {
      auto it = lock_holder_.find(m.key);
      if (it == lock_holder_.end() || it->second == m.client) {
        lock_holder_[m.key] = m.client;
        reply.ok = true;
      } else {
        reply.ok = false;  // held by another writer: the deadlock ingredient
      }
      net_.Send(self_, m.reply_to,
                static_cast<std::uint16_t>(VoteMsgType::kLockReply),
                wire::Encode(reply));
      break;
    }
    case VoteMsgType::kWriteReq: {
      auto it = lock_holder_.find(m.key);
      if (it != lock_holder_.end() && it->second == m.client) {
        auto& vv = store_[m.key];
        if (m.version > vv.version) {
          vv.value = m.value;
          vv.version = m.version;
        }
        lock_holder_.erase(it);
        reply.ok = true;
      }
      net_.Send(self_, m.reply_to,
                static_cast<std::uint16_t>(VoteMsgType::kWriteReply),
                wire::Encode(reply));
      break;
    }
    case VoteMsgType::kReadReq: {
      auto it = store_.find(m.key);
      reply.ok = true;
      if (it != store_.end()) {
        reply.value = it->second.value;
        reply.version = it->second.version;
      }
      net_.Send(self_, m.reply_to,
                static_cast<std::uint16_t>(VoteMsgType::kReadReply),
                wire::Encode(reply));
      break;
    }
    case VoteMsgType::kUnlockReq: {
      auto it = lock_holder_.find(m.key);
      if (it != lock_holder_.end() && it->second == m.client) {
        lock_holder_.erase(it);
      }
      break;  // no reply
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

VotingClient::VotingClient(sim::Simulation& simulation, net::Network& network,
                           net::NodeId self, std::vector<net::NodeId> replicas,
                           VotingOptions options)
    : sim_(simulation),
      net_(network),
      self_(self),
      replicas_(std::move(replicas)),
      options_(options),
      join_waiters_(simulation.scheduler()),
      tasks_(simulation.scheduler()) {
  if (options_.write_quorum == 0) options_.write_quorum = replicas_.size();
  net_.Register(self_, this);
}

VotingClient::~VotingClient() { tasks_.DestroyAll(); }

void VotingClient::OnFrame(const net::Frame& frame) {
  const auto type = static_cast<VoteMsgType>(frame.type);
  if (type != VoteMsgType::kLockReply && type != VoteMsgType::kWriteReply &&
      type != VoteMsgType::kReadReply) {
    return;
  }
  wire::Reader r(frame.payload);
  VoteReply m = r.Read<VoteReply>();
  if (!r.ok()) return;
  auto it = pending_.find(m.req_id);
  if (it == pending_.end()) return;
  auto p = it->second;
  Ack ack;
  ack.ok = m.ok;
  ack.value = VersionedValue{m.value, m.version};
  p->acks.push_back(ack);
  // Resolve as soon as `need` positive acks arrive (or it becomes clear they
  // cannot): count positives.
  std::size_t ok_count = 0;
  for (const Ack& a : p->acks) ok_count += a.ok ? 1 : 0;
  if (ok_count >= p->need) {
    pending_.erase(it);
    join_waiters_.Fulfill(p->corr, true);
  } else if (p->acks.size() == replicas_.size() && ok_count < p->need) {
    pending_.erase(it);
    join_waiters_.Fulfill(p->corr, false);
  }
}

sim::Task<std::vector<VotingClient::Ack>> VotingClient::Gather(
    VoteMsgType type, const std::vector<std::uint8_t>& payload,
    std::size_t need, std::size_t fanout) {
  wire::Reader rr(payload);
  VoteReq req = rr.Read<VoteReq>();
  auto p = std::make_shared<Pending>();
  p->need = need;
  p->corr = next_req_ * 1000003ull;  // distinct from req ids
  pending_[req.req_id] = p;
  for (std::size_t i = 0; i < fanout && i < replicas_.size(); ++i) {
    net_.Send(self_, replicas_[i], static_cast<std::uint16_t>(type), payload);
  }
  auto r = co_await join_waiters_.Await(p->corr, options_.op_timeout);
  pending_.erase(req.req_id);
  if (!r.has_value()) co_return std::vector<Ack>{};  // timeout
  if (!*r) co_return std::vector<Ack>{};             // quorum unreachable
  co_return p->acks;
}

void VotingClient::Write(std::string key, std::string value,
                         std::function<void(bool)> done) {
  tasks_.Spawn(DoWrite(std::move(key), std::move(value), std::move(done)));
}

sim::Task<void> VotingClient::DoWrite(std::string key, std::string value,
                                      std::function<void(bool)> done) {
  // Round 1: collect write locks at a write quorum.
  VoteReq lock;
  lock.req_id = next_req_++;
  lock.reply_to = self_;
  lock.key = key;
  lock.client = self_;
  auto lock_acks = co_await Gather(VoteMsgType::kLockReq, wire::Encode(lock),
                                   options_.write_quorum, replicas_.size());
  if (lock_acks.empty()) {
    // Lock conflict or timeout — with concurrent writers locking replicas in
    // different orders this is exactly the voting deadlock (§5); back out.
    VoteReq unlock = lock;
    unlock.req_id = next_req_++;
    for (net::NodeId replica : replicas_) {
      net_.Send(self_, replica,
                static_cast<std::uint16_t>(VoteMsgType::kUnlockReq),
                wire::Encode(unlock));
    }
    ++stats_.writes_failed;
    if (done) done(false);
    co_return;
  }
  // Round 2: read max version among acks... versions travel with the lock
  // replies in a fuller protocol; here the client picks a fresh version from
  // its clock, unique per client and monotonic.
  VoteReq write;
  write.req_id = next_req_++;
  write.reply_to = self_;
  write.key = key;
  write.value = value;
  write.version = sim_.Now() * 16 + (self_ % 16) + 1;
  write.client = self_;
  auto write_acks = co_await Gather(VoteMsgType::kWriteReq, wire::Encode(write),
                                    options_.write_quorum, replicas_.size());
  if (write_acks.empty()) {
    ++stats_.writes_failed;
    if (done) done(false);
    co_return;
  }
  ++stats_.writes_ok;
  if (done) done(true);
}

void VotingClient::Read(
    std::string key, std::function<void(std::optional<VersionedValue>)> done) {
  tasks_.Spawn(DoRead(std::move(key), std::move(done)));
}

sim::Task<void> VotingClient::DoRead(
    std::string key, std::function<void(std::optional<VersionedValue>)> done) {
  VoteReq read;
  read.req_id = next_req_++;
  read.reply_to = self_;
  read.key = key;
  read.client = self_;
  // Send to exactly the read quorum (read-one sends one message).
  auto acks = co_await Gather(VoteMsgType::kReadReq, wire::Encode(read),
                              options_.read_quorum, options_.read_quorum);
  if (acks.empty()) {
    ++stats_.reads_failed;
    if (done) done(std::nullopt);
    co_return;
  }
  VersionedValue best;
  for (const Ack& a : acks) {
    if (a.value.version >= best.version) best = a.value;
  }
  ++stats_.reads_ok;
  if (done) done(best);
}

}  // namespace vsr::baseline
