// Baseline: a conventional non-replicated transaction server that uses
// stable storage, per the paper's §3.7 correspondence:
//
//   "There is a one-to-one correspondence between event records and
//    information written to stable storage by a conventional transaction
//    system ... The 'completed-call' records are equivalent to the data
//    records that must be forced to stable storage before preparing, and the
//    'commit' and 'abort' records are the same as their stable storage
//    counterparts."
//
//   "For both preparing and committing, our method will be faster than using
//    non-replicated clients and servers if communication is faster than
//    writing to stable storage."
//
// The server executes calls immediately (buffering data records in memory),
// forces outstanding data records to stable storage at prepare, and forces a
// commit record at commit — exactly the critical-path structure bench E2
// compares against VR's force-to-backups.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/wait_table.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "storage/stable_store.h"
#include "wire/buffer.h"

namespace vsr::baseline {

enum class NrMsgType : std::uint16_t {
  kCall = 310,
  kCallReply = 311,
  kPrepare = 312,
  kPrepareReply = 313,
  kCommit = 314,
  kCommitReply = 315,
};

// The one wire struct of the non-replicated baselines (StableServer and
// ViewstampedStableServer): a request, echoed back as its reply.
struct NrMsg {
  std::uint64_t req_id = 0;
  std::uint64_t txn = 0;
  net::NodeId reply_to = 0;
  std::string key;
  std::string value;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.req_id, m.txn, m.reply_to, m.key, m.value);
  }
};

// The single server. Writes go to an in-memory table; durability comes from
// forced log records on the stable store.
class StableServer : public net::FrameHandler {
 public:
  StableServer(sim::Simulation& simulation, net::Network& network,
               net::NodeId self, storage::StableStore& stable);

  void OnFrame(const net::Frame& frame) override;

  std::uint64_t forced_writes() const { return forces_; }

 private:
  void ForceLog(std::string tag, std::function<void()> then);

  sim::Simulation& sim_;
  net::Network& net_;
  const net::NodeId self_;
  storage::StableStore& stable_;
  std::map<std::string, std::string> data_;
  // Per-transaction data records not yet forced (txn id -> count).
  std::map<std::uint64_t, std::uint64_t> unforced_;
  std::uint64_t forces_ = 0;
  std::uint64_t log_seq_ = 0;
};

// Drives one client transaction against the StableServer and reports the
// latency of each phase.
class StableClient : public net::FrameHandler {
 public:
  StableClient(sim::Simulation& simulation, net::Network& network,
               net::NodeId self, net::NodeId server);
  ~StableClient() override;

  struct TxnTiming {
    bool ok = false;
    sim::Duration call_latency = 0;     // per call, averaged
    sim::Duration prepare_latency = 0;  // includes the data-record force
    sim::Duration commit_latency = 0;   // includes the commit-record force
  };

  // Runs a transaction of `num_calls` write calls, an optional think pause
  // (user computation between the last call and the commit request), then
  // prepare + commit.
  void RunTxn(int num_calls, std::function<void(TxnTiming)> done,
              sim::Duration think = 0);

  void OnFrame(const net::Frame& frame) override;

 private:
  sim::Task<void> DoTxn(int num_calls, std::function<void(TxnTiming)> done,
                        sim::Duration think);

  sim::Simulation& sim_;
  net::Network& net_;
  const net::NodeId self_;
  const net::NodeId server_;
  std::uint64_t next_req_ = 1;
  std::uint64_t next_txn_ = 1;
  core::WaitTable<bool> waiters_;
  sim::TaskRegistry tasks_;
};

}  // namespace vsr::baseline
