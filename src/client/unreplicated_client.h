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
// unilaterally by the coordinator-server's sweep. The client reaches every
// group through a core::GroupClient, the same primary cache, redirect rule,
// call attempt and retried request loop the cohort's coordinator uses.
//
// Host-agnostic: constructed over host::Host + net::Transport, like
// ReadClient.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/directory.h"
#include "core/group_client.h"
#include "core/options.h"
#include "host/host.h"
#include "host/task.h"
#include "net/transport.h"
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
  host::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
                                             std::vector<std::uint8_t> args);
  host::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
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
};

class UnreplicatedClient : public net::FrameHandler {
 public:
  // `self` must be a node id the transport serves and no other handler owns.
  UnreplicatedClient(host::Host& hst, net::Transport& transport,
                     const core::Directory& directory, Mid self,
                     GroupId coordinator_group, core::CohortOptions options);
  ~UnreplicatedClient() override;

  // Runs `body`; on true, commits via the coordinator-server; on false or
  // throw, aborts. `on_done` gets the final outcome.
  void Spawn(std::function<host::Task<bool>(ClientTxn&)> body,
             std::function<void(TxnOutcome)> on_done = nullptr);

  // Asks the coordinator-server's primary for a transaction's outcome
  // (recovery after an unknown result): kCommitted, kAborted, or kUnknown
  // when it is undecided, unknown there, or no primary answered. Note the
  // §3.1 garbage-collection contract:
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

  host::Task<void> TxnDriver(std::function<host::Task<bool>(ClientTxn&)> body,
                             std::function<void(TxnOutcome)> on_done);
  host::Task<std::optional<Aid>> BeginTxn();
  host::Task<TxnOutcome> CommitTxn(Aid aid, const Pset& pset);
  host::Task<std::vector<std::uint8_t>> DoCall(
      ClientTxn& txn, GroupId group, std::string proc,
      std::vector<std::uint8_t> args);
  // One bounded outcome request to the coordinator group.
  host::Task<TxnOutcome> DoQueryOutcome(Aid aid);

  net::Transport& transport_;
  const Mid self_;
  const GroupId coordinator_group_;
  const core::CohortOptions options_;
  core::GroupClient groups_;
  ClientStats stats_;

  host::TaskRegistry tasks_;
};

}  // namespace vsr::client
