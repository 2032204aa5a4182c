#include "client/unreplicated_client.h"

#include "core/cohort.h"  // core::TxnError

namespace vsr::client {

UnreplicatedClient::UnreplicatedClient(sim::Simulation& simulation,
                                       net::Network& network,
                                       core::Directory& directory, Mid self,
                                       GroupId coordinator_group,
                                       core::CohortOptions options)
    : sim_(simulation),
      net_(network),
      directory_(directory),
      self_(self),
      coordinator_group_(coordinator_group),
      options_(options),
      reply_waiters_(simulation.scheduler()),
      probe_waiters_(simulation.scheduler()),
      begin_waiters_(simulation.scheduler()),
      commit_waiters_(simulation.scheduler()),
      query_waiters_(simulation.scheduler()),
      tasks_(simulation.scheduler()) {
  net_.Register(self_, this);
}

UnreplicatedClient::~UnreplicatedClient() { tasks_.DestroyAll(); }

void UnreplicatedClient::OnFrame(const net::Frame& frame) {
  switch (static_cast<vr::MsgType>(frame.type)) {
    case vr::MsgType::kReply: {
      auto m = vr::DecodeFrame<vr::ReplyMsg>(frame.payload);
      if (m) reply_waiters_.Fulfill(m->call_id, std::move(*m));
      break;
    }
    case vr::MsgType::kProbeReply: {
      auto m = vr::DecodeFrame<vr::ProbeReplyMsg>(frame.payload);
      if (m) probe_waiters_.Fulfill(m->req_id, std::move(*m));
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
      if (m) query_waiters_.Fulfill(m->aid, std::move(*m));
      break;
    }
    default:
      break;
  }
}

void UnreplicatedClient::Spawn(
    std::function<sim::Task<bool>(ClientTxn&)> body,
    std::function<void(TxnOutcome)> on_done) {
  tasks_.Spawn(TxnDriver(std::move(body), std::move(on_done)));
}

sim::Task<void> UnreplicatedClient::TxnDriver(
    std::function<sim::Task<bool>(ClientTxn&)> body,
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
    if (auto entry = cache_.find(coordinator_group_); entry != cache_.end()) {
      SendMsg(entry->second.view.primary, m);  // best effort; sweep covers loss
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

sim::Task<std::optional<Aid>> UnreplicatedClient::BeginTxn() {
  for (int attempt = 0; attempt < options_.call_attempts; ++attempt) {
    auto entry = co_await CacheLookup(coordinator_group_);
    if (!entry) co_return std::nullopt;
    vr::BeginTxnMsg m;
    m.group = coordinator_group_;
    m.viewid = entry->viewid;
    m.req_id = NextCorrId();
    m.reply_to = self_;
    SendMsg(entry->view.primary, m);
    auto r = co_await begin_waiters_.Await(m.req_id, options_.call_timeout);
    if (!r) {
      cache_.erase(coordinator_group_);
      continue;
    }
    if (r->status == vr::ReplyStatus::kOk) co_return r->aid;
    if (r->view_known) {
      cache_[coordinator_group_] = CacheEntry{r->new_viewid, r->new_view};
    } else {
      cache_.erase(coordinator_group_);
    }
    // Beginning a transaction is idempotent from the client's point of view
    // (an orphaned begin is swept), so retrying is always safe.
  }
  co_return std::nullopt;
}

sim::Task<TxnOutcome> UnreplicatedClient::CommitTxn(Aid aid,
                                                    const Pset& pset) {
  for (int attempt = 0; attempt < options_.commit_attempts; ++attempt) {
    auto entry = co_await CacheLookup(coordinator_group_);
    if (!entry) break;
    vr::CommitReqMsg m;
    m.group = coordinator_group_;
    m.viewid = entry->viewid;
    m.req_id = NextCorrId();
    m.aid = aid;
    m.pset = pset;
    m.reply_to = self_;
    SendMsg(entry->view.primary, m);
    // The coordinator-server runs a full 2PC before answering.
    auto r = co_await commit_waiters_.Await(
        m.req_id, options_.commit_ack_timeout +
                      static_cast<sim::Duration>(options_.prepare_attempts) *
                          options_.prepare_timeout +
                      options_.buffer.force_timeout);
    if (!r) {
      cache_.erase(coordinator_group_);
      continue;  // retransmission is safe: the server answers from its
                 // outcome table once decided
    }
    co_return r->outcome;
  }
  // Could not learn the decision; it may still have committed. Fall back to
  // a query (§3.4).
  co_return co_await DoQueryOutcome(aid);
}

void UnreplicatedClient::QueryOutcome(
    Aid aid, std::function<void(TxnOutcome)> on_done) {
  tasks_.Spawn([](UnreplicatedClient* self, Aid a,
                  std::function<void(TxnOutcome)> done) -> sim::Task<void> {
    TxnOutcome o = co_await self->DoQueryOutcome(a);
    if (done) done(o);
  }(this, aid, std::move(on_done)));
}

sim::Task<TxnOutcome> UnreplicatedClient::DoQueryOutcome(Aid aid) {
  const std::vector<Mid>* config = directory_.Lookup(aid.coordinator_group);
  if (config == nullptr) co_return TxnOutcome::kUnknown;
  for (int round = 0; round < options_.probe_rounds; ++round) {
    for (Mid target : *config) {
      vr::QueryMsg q;
      q.aid = aid;
      q.reply_to = self_;
      SendMsg(target, q);
      auto r = co_await query_waiters_.Await(aid, options_.probe_timeout);
      if (r && (r->outcome == TxnOutcome::kCommitted ||
                r->outcome == TxnOutcome::kAborted)) {
        co_return r->outcome;
      }
    }
  }
  co_return TxnOutcome::kUnknown;
}

sim::Task<std::vector<std::uint8_t>> ClientTxn::Call(
    GroupId group, std::string proc, std::vector<std::uint8_t> args) {
  return client_->DoCall(*this, group, std::move(proc), std::move(args));
}

sim::Task<std::vector<std::uint8_t>> UnreplicatedClient::DoCall(
    ClientTxn& txn, GroupId group, std::string proc,
    std::vector<std::uint8_t> args) {
  if (txn.doomed_) throw core::TxnError("transaction doomed");
  const std::uint64_t call_seq = NextCallSeq();
  bool ambiguous = false;
  int wrong_view_budget = options_.call_attempts;
  for (int attempt = 0; attempt < options_.call_attempts;) {
    auto entry = co_await CacheLookup(group);
    if (!entry) break;
    vr::CallMsg m;
    m.group = group;
    m.viewid = entry->viewid;
    m.call_id = NextCorrId();
    m.call_seq = call_seq;
    m.reply_to = self_;
    m.sub_aid = vr::SubAid{txn.aid_, 0};
    m.proc = proc;
    m.args = args;
    SendMsg(entry->view.primary, m);
    auto r = co_await reply_waiters_.Await(m.call_id, options_.call_timeout);
    if (!r) {
      ambiguous = true;
      ++attempt;
      continue;
    }
    if (r->status == vr::ReplyStatus::kOk) {
      vr::MergePset(txn.pset_, r->pset);
      ++stats_.calls_ok;
      co_return std::move(r->result);
    }
    if (r->status == vr::ReplyStatus::kFailed) {
      ++stats_.calls_failed;
      txn.doomed_ = true;
      throw core::TxnError(
          std::string(r->result.begin(), r->result.end()));
    }
    // Wrong view.
    if (r->view_known) {
      cache_[group] = CacheEntry{r->new_viewid, r->new_view};
    } else {
      cache_.erase(group);
    }
    if (!ambiguous && wrong_view_budget-- > 0) continue;
    break;  // possibly executed: abort (no subactions at this client)
  }
  ++stats_.calls_failed;
  txn.doomed_ = true;
  throw core::TxnError("no reply from group " + std::to_string(group));
}

sim::Task<std::optional<UnreplicatedClient::CacheEntry>>
UnreplicatedClient::CacheLookup(GroupId g) {
  if (auto it = cache_.find(g); it != cache_.end()) co_return it->second;
  const std::vector<Mid>* config = directory_.Lookup(g);
  if (config == nullptr) co_return std::nullopt;
  for (int round = 0; round < options_.probe_rounds; ++round) {
    for (Mid target : *config) {
      if (auto it = cache_.find(g); it != cache_.end()) co_return it->second;
      vr::ProbeMsg probe;
      probe.group = g;
      probe.req_id = NextCorrId();
      probe.reply_to = self_;
      SendMsg(target, probe);
      auto r = co_await probe_waiters_.Await(probe.req_id,
                                             options_.probe_timeout);
      if (r && r->known && r->active) {
        cache_[g] = CacheEntry{r->viewid, r->view};
        co_return cache_[g];
      }
    }
  }
  co_return std::nullopt;
}

}  // namespace vsr::client
