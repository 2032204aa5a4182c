#include "client/unreplicated_client.h"

#include "core/cohort.h"  // core::TxnError

namespace vsr::client {

UnreplicatedClient::UnreplicatedClient(host::Host& hst,
                                       net::Transport& transport,
                                       const core::Directory& directory,
                                       Mid self, GroupId coordinator_group,
                                       core::CohortOptions options)
    : transport_(transport),
      self_(self),
      coordinator_group_(coordinator_group),
      options_(std::move(options)),
      groups_(hst.timers(), transport, directory, self),
      begin_waiters_(hst.timers()),
      commit_waiters_(hst.timers()),
      tasks_(hst.timers()) {
  transport_.Register(self_, this);
}

UnreplicatedClient::~UnreplicatedClient() {
  tasks_.DestroyAll();
  transport_.Unregister(self_);
}

void UnreplicatedClient::OnFrame(const net::Frame& frame) {
  switch (static_cast<vr::MsgType>(frame.type)) {
    case vr::MsgType::kReply: {
      auto m = vr::DecodeFrame<vr::ReplyMsg>(frame.payload);
      if (m) groups_.OnReply(std::move(*m));
      break;
    }
    case vr::MsgType::kProbeReply: {
      auto m = vr::DecodeFrame<vr::ProbeReplyMsg>(frame.payload);
      if (m) groups_.OnProbeReply(*m);
      break;
    }
    case vr::MsgType::kBeginTxnReply: {
      auto m = vr::DecodeFrame<vr::BeginTxnReplyMsg>(frame.payload);
      if (m) begin_waiters_.Fulfill(m->req_id, std::move(*m));
      break;
    }
    case vr::MsgType::kCommitReqReply: {
      auto m = vr::DecodeFrame<vr::CommitReqReplyMsg>(frame.payload);
      if (m) commit_waiters_.Fulfill(m->req_id, std::move(*m));
      break;
    }
    case vr::MsgType::kQueryReply: {
      auto m = vr::DecodeFrame<vr::QueryReplyMsg>(frame.payload);
      if (m) groups_.OnQueryReply(std::move(*m));
      break;
    }
    default:
      break;
  }
}

void UnreplicatedClient::Spawn(
    std::function<host::Task<bool>(ClientTxn&)> body,
    std::function<void(TxnOutcome)> on_done) {
  tasks_.Spawn(TxnDriver(std::move(body), std::move(on_done)));
}

host::Task<void> UnreplicatedClient::TxnDriver(
    std::function<host::Task<bool>(ClientTxn&)> body,
    std::function<void(TxnOutcome)> on_done) {
  auto aid = co_await BeginTxn();
  if (!aid) {
    ++stats_.txns_aborted;
    if (on_done) on_done(TxnOutcome::kAborted);
    co_return;
  }
  ClientTxn txn(*this, *aid);
  bool want_commit = false;
  try {
    want_commit = co_await body(txn);
  } catch (const std::exception&) {
    want_commit = false;
  }

  TxnOutcome outcome;
  if (!want_commit || txn.doomed_) {
    vr::AbortReqMsg m;
    m.group = coordinator_group_;
    m.aid = *aid;
    m.pset = txn.pset_;
    if (auto entry = groups_.Get(coordinator_group_)) {
      groups_.Send(entry->view.primary, m);  // best effort; sweep covers loss
    }
    outcome = TxnOutcome::kAborted;
  } else {
    outcome = co_await CommitTxn(*aid, txn.pset_);
  }
  switch (outcome) {
    case TxnOutcome::kCommitted:
      ++stats_.txns_committed;
      break;
    case TxnOutcome::kAborted:
      ++stats_.txns_aborted;
      break;
    default:
      ++stats_.txns_unknown;
      break;
  }
  if (on_done) on_done(outcome);
}

host::Task<std::optional<Aid>> UnreplicatedClient::BeginTxn() {
  // Beginning a transaction is idempotent from the client's point of view
  // (an orphaned begin is swept), so retrying is always safe.
  const auto send = [&](const core::GroupClient::Entry& entry) {
    vr::BeginTxnMsg m;
    m.group = coordinator_group_;
    m.viewid = entry.viewid;
    m.req_id = groups_.NextId();
    m.reply_to = self_;
    groups_.Send(entry.view.primary, m);
    return m.req_id;
  };
  auto r = co_await groups_.Request(coordinator_group_, core::kCallAttempts,
                                    core::kCallTimeout, begin_waiters_, send);
  if (!r || r->status != vr::ReplyStatus::kOk) co_return std::nullopt;
  co_return r->aid;
}

host::Task<TxnOutcome> UnreplicatedClient::CommitTxn(Aid aid,
                                                     const Pset& pset) {
  // Retransmission is safe: the server answers from its outcome table once
  // decided.
  const auto send = [&](const core::GroupClient::Entry& entry) {
    vr::CommitReqMsg m;
    m.group = coordinator_group_;
    m.viewid = entry.viewid;
    m.req_id = groups_.NextId();
    m.aid = aid;
    m.pset = pset;
    m.reply_to = self_;
    groups_.Send(entry.view.primary, m);
    return m.req_id;
  };
  // The coordinator-server runs a full 2PC before answering.
  auto r = co_await groups_.Request(
      coordinator_group_, options_.commit_attempts,
      core::kCommitAckTimeout + core::kPrepareAttempts * core::kPrepareTimeout +
          vr::kForceTimeout,
      commit_waiters_, send);
  if (r) co_return r->outcome;
  // Could not learn the decision; it may still have committed. Fall back to
  // a query (§3.4).
  co_return co_await DoQueryOutcome(aid);
}

void UnreplicatedClient::QueryOutcome(
    Aid aid, std::function<void(TxnOutcome)> on_done) {
  tasks_.Spawn([](UnreplicatedClient* self, Aid a,
                  std::function<void(TxnOutcome)> done) -> host::Task<void> {
    TxnOutcome o = co_await self->DoQueryOutcome(a);
    if (done) done(o);
  }(this, aid, std::move(on_done)));
}

host::Task<TxnOutcome> UnreplicatedClient::DoQueryOutcome(Aid aid) {
  const TxnOutcome o = co_await groups_.AskOutcome(
      aid.coordinator_group, aid, /*settle=*/false, core::kCallAttempts);
  co_return o == TxnOutcome::kActive ? TxnOutcome::kUnknown : o;
}

host::Task<std::vector<std::uint8_t>> ClientTxn::Call(
    GroupId group, std::string proc, std::vector<std::uint8_t> args) {
  return client_->DoCall(*this, group, std::move(proc), std::move(args));
}

host::Task<std::vector<std::uint8_t>> UnreplicatedClient::DoCall(
    ClientTxn& txn, GroupId group, std::string proc,
    std::vector<std::uint8_t> args) {
  if (txn.doomed_) throw core::TxnError("transaction doomed");
  vr::CallMsg m;
  m.group = group;
  m.sub_aid = vr::SubAid{txn.aid_, 0};
  m.proc = std::move(proc);
  m.args = std::move(args);
  auto r = co_await groups_.Call(std::move(m));
  if (r && r->status == vr::ReplyStatus::kOk) {
    vr::MergePset(txn.pset_, r->pset);
    ++stats_.calls_ok;
    co_return std::move(r->result);
  }
  // Failed, or no reply: the §3.5 client has no subactions to retry with,
  // so either dooms the transaction.
  ++stats_.calls_failed;
  txn.doomed_ = true;
  if (r) throw core::TxnError(std::string(r->result.begin(), r->result.end()));
  throw core::TxnError("no reply from group " + std::to_string(group));
}

}  // namespace vsr::client
