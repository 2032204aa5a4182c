// Baseline: quorum voting replication (Gifford weighted voting [16],
// Herlihy quorum consensus [21]) over the same simulated network.
//
// §5 of the paper compares against voting:
//   "With voting, write operations are usually performed at all cohorts,
//    and reads are performed at only one cohort, but in general writes can
//    be performed at a majority of cohorts and reads at enough cohorts that
//    each read will intersect each write at at least one cohort."
//   "Our method is faster than voting for write operations since we require
//    fewer messages. Also, we avoid the deadlocks that can arise if
//    messages for concurrent updates arrive at the cohorts in different
//    orders."
//
// This implementation provides versioned read/write quorum operations with
// per-replica locking, which is enough to reproduce the message-count and
// latency comparison (bench E3) and the concurrent-writer deadlock behaviour
// the paper mentions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/wait_table.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "wire/buffer.h"

namespace vsr::baseline {

// Message tags in a range disjoint from vr::MsgType.
enum class VoteMsgType : std::uint16_t {
  kLockReq = 300,   // acquire write lock at a replica
  kLockReply = 301,
  kWriteReq = 302,  // install value+version, release lock
  kWriteReply = 303,
  kReadReq = 304,
  kReadReply = 305,
  kUnlockReq = 306,  // abort path: release without writing
};

struct VersionedValue {
  std::string value;
  std::uint64_t version = 0;
};

// One voting replica: versioned store with a single-writer lock per key.
class VotingReplica : public net::FrameHandler {
 public:
  VotingReplica(sim::Simulation& simulation, net::Network& network,
                net::NodeId self);

  void OnFrame(const net::Frame& frame) override;

  std::optional<VersionedValue> Get(const std::string& key) const {
    auto it = store_.find(key);
    if (it == store_.end()) return std::nullopt;
    return it->second;
  }

 private:
  sim::Simulation& sim_;
  net::Network& net_;
  const net::NodeId self_;
  std::map<std::string, VersionedValue> store_;
  std::map<std::string, std::uint64_t> lock_holder_;  // key -> client id
};

struct VotingOptions {
  // Quorum sizes; defaults are read-one/write-all for n replicas set by the
  // client constructor. r + w must exceed n.
  std::size_t read_quorum = 1;
  std::size_t write_quorum = 0;  // 0 = all
  sim::Duration op_timeout = 100 * sim::kMillisecond;
  sim::Duration lock_timeout = 100 * sim::kMillisecond;
};

struct VotingStats {
  std::uint64_t writes_ok = 0;
  std::uint64_t writes_failed = 0;  // lock conflict / timeout (deadlock!)
  std::uint64_t reads_ok = 0;
};

// A voting client: performs quorum reads and two-round quorum writes
// (lock round + write round), as in classic quorum-consensus replication.
class VotingClient : public net::FrameHandler {
 public:
  VotingClient(sim::Simulation& simulation, net::Network& network,
               net::NodeId self, std::vector<net::NodeId> replicas,
               VotingOptions options);
  ~VotingClient() override;

  void OnFrame(const net::Frame& frame) override;

  // Spawned operations (completion via callback).
  void Write(std::string key, std::string value,
             std::function<void(bool)> done);
  void Read(std::string key,
            std::function<void(std::optional<VersionedValue>)> done);

  const VotingStats& stats() const { return stats_; }

 private:
  struct Ack {
    bool ok = false;
    VersionedValue value;  // read replies
  };

  sim::Task<void> DoWrite(std::string key, std::string value,
                          std::function<void(bool)> done);
  sim::Task<void> DoRead(std::string key,
                         std::function<void(std::optional<VersionedValue>)> done);
  // Sends `payload` of `type` to `targets`, waits for `need` acks.
  sim::Task<std::vector<Ack>> Gather(VoteMsgType type,
                                     const std::vector<std::uint8_t>& payload,
                                     std::size_t need, std::size_t fanout);

  sim::Simulation& sim_;
  net::Network& net_;
  const net::NodeId self_;
  std::vector<net::NodeId> replicas_;
  VotingOptions options_;
  VotingStats stats_;
  std::uint64_t next_req_ = 1;

  struct Pending {
    std::size_t need;
    std::vector<Ack> acks;
    std::uint64_t corr;
  };
  std::map<std::uint64_t, std::shared_ptr<Pending>> pending_;  // by req id
  core::WaitTable<bool> join_waiters_;
  sim::TaskRegistry tasks_;
};

}  // namespace vsr::baseline
