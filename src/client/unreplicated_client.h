// An unreplicated client using a replicated coordinator-server (§3.5).
//
// "If the client is not replicated, it is still desirable for the
//  coordinator to be highly available, since this can reduce the 'window of
//  vulnerability' in two-phase commit. ... The client communicates with such
//  a server when it starts a transaction, and when it commits or aborts the
//  transaction. The coordinator-server carries out two-phase commit as
//  described above on the client's behalf."
//
// The client begins a transaction at the coordinator-server's primary
// (obtaining an aid whose groupid points at that group), makes its remote
// calls directly to server groups while accumulating the pset, and finally
// ships the pset back in a commit-request; the coordinator-server runs 2PC
// and answers the outcome. A client that vanishes mid-transaction is aborted
// unilaterally by the coordinator-server's sweep.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/directory.h"
#include "core/options.h"
#include "core/wait_table.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "vr/messages.h"
#include "vr/types.h"

namespace vsr::client {

using vr::Aid;
using vr::GroupId;
using vr::Mid;
using vr::Pset;
using vr::TxnOutcome;

class UnreplicatedClient;

// Handle passed to a client transaction body.
class ClientTxn {
 public:
  Aid aid() const { return aid_; }
  bool doomed() const { return doomed_; }

  // Remote call; merges the reply pset. Throws core::TxnError on failure or
  // no reply (the §3.5 client has no subactions — uncertainty aborts).
  sim::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
                                            std::vector<std::uint8_t> args);
  sim::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
                                            const std::string& args) {
    return Call(group, std::move(proc),
                std::vector<std::uint8_t>(args.begin(), args.end()));
  }

 private:
  friend class UnreplicatedClient;
  ClientTxn(UnreplicatedClient& c, Aid aid) : client_(&c), aid_(aid) {}
  UnreplicatedClient* client_;
  Aid aid_;
  Pset pset_;
  bool doomed_ = false;
};

struct ClientStats {
  std::uint64_t txns_committed = 0;
  std::uint64_t txns_aborted = 0;
  std::uint64_t txns_unknown = 0;
  std::uint64_t calls_ok = 0;
  std::uint64_t calls_failed = 0;
};

class UnreplicatedClient : public net::FrameHandler {
 public:
  UnreplicatedClient(sim::Simulation& simulation, net::Network& network,
                     core::Directory& directory, Mid self,
                     GroupId coordinator_group, core::CohortOptions options);
  ~UnreplicatedClient() override;

  // Runs `body`; on true, commits via the coordinator-server; on false or
  // throw, aborts. `on_done` gets the final outcome.
  void Spawn(std::function<sim::Task<bool>(ClientTxn&)> body,
             std::function<void(TxnOutcome)> on_done = nullptr);

  // Queries the coordinator-server for a transaction's outcome (recovery
  // after an unknown result). Note the §3.1 garbage-collection contract:
  // once every participant acknowledged a commit, the coordinator logs a
  // "done" record and may forget the outcome — queries are a recovery
  // mechanism for in-doubt parties, not a transaction-history API.
  void QueryOutcome(Aid aid, std::function<void(TxnOutcome)> on_done);

  Mid mid() const { return self_; }
  const ClientStats& stats() const { return stats_; }

  // net::FrameHandler
  void OnFrame(const net::Frame& frame) override;

 private:
  friend class ClientTxn;

  struct CacheEntry {
    vr::ViewId viewid;
    vr::View view;
  };

  template <typename M>
  void SendMsg(Mid to, const M& m) {
    net_.Send(self_, to, static_cast<std::uint16_t>(M::kType),
              vr::EncodeMsg(m));
  }
  std::uint64_t NextCorrId() { return next_corr_id_++; }
  std::uint64_t NextCallSeq() {
    return (static_cast<std::uint64_t>(self_) << 32) | next_call_seq_++;
  }

  sim::Task<void> TxnDriver(std::function<sim::Task<bool>(ClientTxn&)> body,
                            std::function<void(TxnOutcome)> on_done);
  sim::Task<std::optional<Aid>> BeginTxn();
  sim::Task<TxnOutcome> CommitTxn(Aid aid, const Pset& pset);
  sim::Task<std::vector<std::uint8_t>> DoCall(ClientTxn& txn, GroupId group,
                                              std::string proc,
                                              std::vector<std::uint8_t> args);
  sim::Task<std::optional<CacheEntry>> CacheLookup(GroupId g);
  sim::Task<TxnOutcome> DoQueryOutcome(Aid aid);

  sim::Simulation& sim_;
  net::Network& net_;
  core::Directory& directory_;
  const Mid self_;
  const GroupId coordinator_group_;
  core::CohortOptions options_;

  std::uint64_t next_corr_id_ = 1;
  std::uint32_t next_call_seq_ = 1;
  std::map<GroupId, CacheEntry> cache_;
  ClientStats stats_;

  core::WaitTable<vr::ReplyMsg> reply_waiters_;
  core::WaitTable<vr::ProbeReplyMsg> probe_waiters_;
  core::WaitTable<vr::BeginTxnReplyMsg> begin_waiters_;
  core::WaitTable<vr::CommitReqReplyMsg> commit_waiters_;
  core::WaitTable<vr::QueryReplyMsg, Aid> query_waiters_;  // keyed by aid

  sim::TaskRegistry tasks_;
};

}  // namespace vsr::client
