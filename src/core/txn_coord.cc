// The client / coordinator role (Fig. 2): transactions, remote calls with
// subaction retry (§3.6), two-phase commit, and the coordinator-server
// protocol for unreplicated clients (§3.5). Reaching other groups' primaries
// is GroupClient's (core/group_client.h).
#include <algorithm>
#include <memory>

#include "core/cohort.h"

namespace vsr::core {

namespace {

vr::CallMsg MakeCall(SubAid sub_aid, GroupId group, std::string proc,
                     std::vector<std::uint8_t> args,
                     std::vector<std::uint32_t> dead_subs) {
  vr::CallMsg msg;
  msg.group = group;
  msg.sub_aid = sub_aid;
  msg.dead_subs = std::move(dead_subs);
  msg.proc = std::move(proc);
  msg.args = std::move(args);
  return msg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Application entry points
// ---------------------------------------------------------------------------

void Cohort::RegisterProc(std::string name, ProcFn fn) {
  procs_[std::move(name)] = std::move(fn);
}

void Cohort::SpawnTransaction(TxnBody body,
                              std::function<void(TxnOutcome)> on_done) {
  if (!IsActivePrimary()) {
    if (on_done) on_done(TxnOutcome::kAborted);
    return;
  }
  // "Create the transaction aid ... (We make the aid unique across view
  //  changes by including mygroupid and cur_viewid in it.)"
  Aid aid;
  aid.coordinator_group = group_;
  aid.view = cur_viewid_;
  aid.seq = next_txn_seq_++;
  tasks_.Spawn(TxnDriver(aid, std::move(body), std::move(on_done)));
}

void Cohort::CountOutcome(TxnOutcome outcome) {
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
}

host::Task<void> Cohort::TxnDriver(Aid aid, TxnBody body,
                                  std::function<void(TxnOutcome)> on_done) {
  TxnHandle h(*this, aid);
  txns_[aid].active = true;
  bool want_commit = false;
  try {
    want_commit = co_await body(h);
  } catch (const std::exception&) {
    want_commit = false;  // TxnError (doomed) or application failure
  }

  TxnOutcome outcome;
  if (h.decided_) {
    // A final call's group decided (DESIGN.md §13.6): nothing is left to
    // do here, whatever the body did after it.
    outcome = *h.decided_;
    if (outcome == TxnOutcome::kCommitted) ++stats_.one_round_commits;
  } else if (!want_commit || h.doomed_) {
    co_await AbortEverywhere(aid, h.pset_, h.touched_groups_);
    outcome = TxnOutcome::kAborted;
  } else {
    outcome = co_await RunTwoPhaseCommit(aid, h.pset_);
  }
  CountOutcome(outcome);
  EndCoordination(aid);
  if (on_done) on_done(outcome);
}

// ---------------------------------------------------------------------------
// Remote calls from the client primary (Fig. 2 "Making a remote call")
// ---------------------------------------------------------------------------

host::Task<std::vector<std::uint8_t>> TxnHandle::Call(
    GroupId group, std::string proc, std::vector<std::uint8_t> args) {
  return cohort_->ClientCall(*this, group, std::move(proc), std::move(args),
                             false);
}

host::Task<std::vector<std::uint8_t>> TxnHandle::FinalCall(
    GroupId group, std::string proc, std::vector<std::uint8_t> args) {
  return cohort_->ClientCall(*this, group, std::move(proc), std::move(args),
                             true);
}

bool TxnHandle::OnlyTouches(GroupId group) const {
  return std::all_of(touched_groups_.begin(), touched_groups_.end(),
                     [group](GroupId g) { return g == group; }) &&
         std::all_of(pset_.begin(), pset_.end(),
                     [group](const vr::PsetEntry& e) {
                       return e.groupid == group;
                     });
}

host::Task<std::vector<std::uint8_t>> Cohort::ClientCall(
    TxnHandle& h, GroupId group, std::string proc,
    std::vector<std::uint8_t> args, bool final_call) {
  if (h.doomed_) throw TxnError("transaction doomed: " + h.doom_reason_);
  if (h.decided_) throw TxnError("transaction already decided");
  if (std::find(h.touched_groups_.begin(), h.touched_groups_.end(), group) ==
      h.touched_groups_.end()) {
    h.touched_groups_.push_back(group);
  }
  if (final_call && h.OnlyTouches(group)) {
    co_return co_await LoneCall(h, group, std::move(proc), std::move(args));
  }

  const int attempts =
      options_.nested_call_retry ? options_.nested_retry_attempts : 1;
  for (int a = 0; a < attempts; ++a) {
    // §3.6: each attempt is a subaction; without nested transactions the
    // single attempt runs as subaction 0 (top-level work).
    const std::uint32_t sub =
        options_.nested_call_retry ? h.next_sub_++ : 0;
    const SubAid sid{h.aid_, sub};

    auto r = co_await group_client_.Call(
        MakeCall(sid, group, proc, args, h.dead_subs_));
    if (r && r->status == vr::ReplyStatus::kOk) {
      // "add the elements of the pset in the reply message to the
      //  transaction's pset."
      vr::MergePset(h.pset_, r->pset);
      co_return std::move(r->result);
    }
    if (r && r->status == vr::ReplyStatus::kFailed) {
      h.doomed_ = true;
      h.doom_reason_.assign(r->result.begin(), r->result.end());
      throw TxnError("call failed: " + h.doom_reason_);
    }

    // No reply: "The message might be a new one, or it might be a duplicate
    // for a call that ran before the view change" (Fig. 2 step 3). Without
    // subactions this dooms the whole transaction; with them (§3.6) "we can
    // abort just the subaction, and then do the call again as a new
    // subaction."
    if (a + 1 < attempts) {
      ++stats_.subaction_retries;
      if (auto entry = group_client_.Get(group)) {
        vr::AbortSubMsg abort_sub;
        abort_sub.group = group;
        abort_sub.sub_aid = sid;
        SendMsg(entry->view.primary, abort_sub);  // best effort
      }
      // The abort-sub may be lost; from now on every call of this
      // transaction carries the dead subaction so servers discard its
      // tentative versions before executing (§3.6). The retry goes to the
      // cached primary: a redirect or the watch left the newer view there,
      // and a silent call already dropped the entry.
      h.dead_subs_.push_back(sub);
      vr::ErasePsetSub(h.pset_, sub);
    }
  }

  h.doomed_ = true;
  h.doom_reason_ = "no reply from group " + std::to_string(group);
  throw TxnError(h.doom_reason_);
}

host::Task<std::vector<std::uint8_t>> Cohort::NestedCall(
    ProcContext& ctx, GroupId group, std::string proc,
    std::vector<std::uint8_t> args) {
  // A server's nested call inherits the caller's subaction, so an aborted
  // attempt discards the nested effects too, and the prepare-time pset check
  // covers them (§3.6).
  auto r = co_await group_client_.Call(MakeCall(
      ctx.sub_aid(), group, std::move(proc), std::move(args), ctx.dead_subs_));
  if (!r) throw TxnError("nested call: no reply from group " +
                         std::to_string(group));
  if (r->status != vr::ReplyStatus::kOk) {
    throw TxnError("nested call failed at group " + std::to_string(group));
  }
  vr::MergePset(ctx.pset_, r->pset);
  co_return std::move(r->result);
}

host::Task<std::vector<std::uint8_t>> Cohort::LoneCall(
    TxnHandle& h, GroupId group, std::string proc,
    std::vector<std::uint8_t> args) {
  const std::uint32_t sub = options_.nested_call_retry ? h.next_sub_++ : 0;
  vr::CallMsg msg = MakeCall(SubAid{h.aid_, sub}, group, std::move(proc),
                             std::move(args), h.dead_subs_);
  msg.final_call = true;
  msg.pset = h.pset_;
  bool sent = false;
  auto r = co_await group_client_.Call(std::move(msg), &sent);
  if (r && r->status == vr::ReplyStatus::kFailed) {
    h.doomed_ = true;
    h.doom_reason_.assign(r->result.begin(), r->result.end());
    throw TxnError("call failed: " + h.doom_reason_);
  }
  if (r && r->outcome == TxnOutcome::kUnknown) {
    // Undecided: the call made nested calls to other groups, so the
    // transaction commits through 2PC as if this were a plain call.
    vr::MergePset(h.pset_, r->pset);
    co_return std::move(r->result);
  }
  TxnOutcome outcome = TxnOutcome::kAborted;
  if (r) {
    outcome = r->outcome;
  } else if (sent) {
    // No reply, or a wrong-view rejection: the call may have run and its
    // group decided. A lost reply is not presumed aborted; the group's
    // primary settles the transaction.
    outcome = co_await SettleAt(h.aid_, group);
  }
  if (outcome == TxnOutcome::kAborted) {
    h.doomed_ = true;
    h.doom_reason_ = "aborted at group " + std::to_string(group);
    throw TxnError(h.doom_reason_);
  }
  h.decided_ = outcome;
  co_return r ? std::move(r->result) : std::vector<std::uint8_t>{};
}

host::Task<TxnOutcome> Cohort::SettleAt(Aid aid, GroupId g) {
  // A group with no configuration cannot have run the call.
  if (directory_.Lookup(g) == nullptr) co_return TxnOutcome::kAborted;
  // One transmission per check: a deposed coordinator stops asking.
  while (IsActivePrimary()) {
    const TxnOutcome outcome = co_await group_client_.AskOutcome(
        g, aid, /*settle=*/true, 1, &stats_.settle_requests_sent);
    if (outcome == TxnOutcome::kCommitted || outcome == TxnOutcome::kAborted) {
      co_return outcome;
    }
  }
  co_return TxnOutcome::kUnknown;
}

// ---------------------------------------------------------------------------
// Two-phase commit, coordinator side (Fig. 2)
// ---------------------------------------------------------------------------

struct Cohort::FanOutJoin {
  std::size_t remaining = 0;
  bool all_ok = true;
  std::uint64_t corr = 0;
};

host::Task<bool> Cohort::FanOut(std::vector<GroupId> groups,
                                host::Duration deadline,
                                std::function<host::Task<bool>(GroupId)> one) {
  if (groups.empty()) co_return true;
  auto join = std::make_shared<FanOutJoin>();
  join->remaining = groups.size();
  join->corr = group_client_.NextId();
  for (GroupId g : groups) tasks_.Spawn(JoinOne(one(g), join));
  auto all_ok = co_await bool_waiters_.Await(join->corr, deadline);
  co_return all_ok.value_or(false);
}

host::Task<void> Cohort::JoinOne(host::Task<bool> one,
                                 std::shared_ptr<FanOutJoin> join) {
  const bool ok = co_await std::move(one);
  if (!ok) join->all_ok = false;
  if (--join->remaining == 0) bool_waiters_.Fulfill(join->corr, join->all_ok);
}

host::Task<TxnOutcome> Cohort::RunTwoPhaseCommit(Aid aid, Pset pset) {
  // "It determines who the participants are from the pset."
  const std::vector<GroupId> participants = vr::PsetGroups(pset);
  if (participants.empty()) co_return TxnOutcome::kCommitted;

  // Phase one, in parallel. "the plist is a list of non-read-only
  // participants", in the order they prepared.
  auto plist = std::make_shared<std::vector<GroupId>>();
  const auto prepare = [&](GroupId g) {
    return PrepareOne(aid, pset, g, plist);
  };
  const bool all_ok = co_await FanOut(
      participants,
      static_cast<host::Duration>(kPrepareAttempts + 1) *
          (kPrepareTimeout + kProbeTimeout + vr::kForceTimeout),
      prepare);

  if (!all_ok) {
    // "If there is no answer after repeated tries ... or if any participant
    //  refuses to prepare, discard any local locks and versions ... and send
    //  abort messages to the participants."
    co_await AbortEverywhere(aid, pset);
    co_return TxnOutcome::kAborted;
  }

  // Commit point: "add a <'committing', plist, aid> record to the buffer ...
  // and then do a force-to(new_vs)".
  if (!IsActivePrimary()) co_return TxnOutcome::kUnknown;
  // §3.1: a coordinator view change aborts the group's in-flight
  // transactions. A view this cohort was left out of may already have
  // answered a participant's query with the presumed abort (LocalOutcome),
  // so a transaction begun in an older view never commits, even here.
  if (cur_viewid_ != aid.view) {
    co_await AbortEverywhere(aid, pset);
    co_return TxnOutcome::kAborted;
  }

  // §3.7: all participants read-only. Each of them already added and forced
  // its own <committed> record when it prepared, holds no locks now, and
  // will never query us (queries target prepared, lock-holding txns). The
  // committing record, its force, the commit fan-out, and the done record
  // would replicate a decision nobody reads — skip the lot. Gated on the
  // force_read_only_prepare knob so the unsafe ablation keeps the classic
  // ladder for comparison.
  if (plist->empty() && options_.force_read_only_prepare) {
    ++stats_.read_only_commits_skipped;
    co_return TxnOutcome::kCommitted;
  }

  const Viewstamp vs = AddRecord(vr::EventRecord::Committing(aid, *plist));
  if (!options_.commit_fusion) {
    // The serial ladder (bench E2): the reply waits for the decision force.
    // A failed force leaves the decision record to our group's view change,
    // and participants learn the truth via queries (§3.4): we must not
    // claim either outcome.
    if (!co_await Force(vs)) co_return TxnOutcome::kUnknown;
  } else {
    // Fused path (DESIGN.md §13), for any number of participants: the
    // decision is visible — to §3.4 queries via the outcome table, and to
    // the backups via the flush ForceTo issues synchronously in this same
    // instant, before the first CommitMsg and before the client callback
    // runs — as soon as it is buffered. Only the ack-counting of that force
    // and the commit fan-out run in background; durability additionally
    // rides the write-behind event log (§10, already appended by
    // AddRecord). A failed force (timed out, or the buffer already stopped)
    // is counted here and one that a view change or crash abandons is
    // counted by the buffer (forces_abandoned); neither is acted on: the
    // record either survived into the new view or participants resolve via
    // §3.4 queries against it.
    ++stats_.fused_commits;
    if (buffer_.active()) {
      buffer_.ForceTo(vs, [this](bool ok) {
        if (!ok) ++stats_.fused_decision_forces_failed;
      });
    } else {
      ++stats_.fused_decision_forces_failed;
    }
  }
  // "Note that user code can continue running as soon as the 'committing'
  //  record has been forced to the backups" — phase two runs in background.
  tasks_.Spawn(FinishCommitPhase(aid, *plist));
  co_return TxnOutcome::kCommitted;
}

host::Task<bool> Cohort::PrepareOne(
    Aid aid, Pset pset, GroupId g,
    std::shared_ptr<std::vector<GroupId>> plist) {
  // "update the cache, if possible, and retry the prepare" — prepares are
  // idempotent at the participant.
  const auto send = [&](const GroupClient::Entry& entry) {
    vr::PrepareMsg m;
    m.group = g;
    m.aid = aid;
    m.pset = pset;
    m.reply_to = self_;
    SendMsg(entry.view.primary, m);
    return std::pair{aid, g};
  };
  auto r = co_await group_client_.Request<vr::PrepareReplyMsg>(
      g, kPrepareAttempts, kPrepareTimeout + vr::kForceTimeout, send);
  if (!r || r->status != vr::PrepareStatus::kPrepared) co_return false;
  if (!r->read_only) plist->push_back(g);
  co_return true;
}

host::Task<void> Cohort::FinishCommitPhase(Aid aid,
                                          std::vector<GroupId> plist) {
  const auto commit = [&](GroupId g) { return CommitOne(aid, g); };
  const bool all_acked = co_await FanOut(
      plist,
      static_cast<host::Duration>(options_.commit_attempts + 1) *
          (kCommitAckTimeout + kProbeTimeout + vr::kForceTimeout),
      commit);
  // "when all of them acknowledge the commit, add a <'done', aid> record."
  // The done record garbage-collects the outcome entry — which is only safe
  // once every participant really acknowledged (an unreached participant
  // would later query and must still find the answer).
  if (all_acked && IsActivePrimary() && buffer_.active()) {
    AddRecord(vr::EventRecord::Done(aid));
  }
}

host::Task<bool> Cohort::CommitOne(Aid aid, GroupId g) {
  const auto send = [&](const GroupClient::Entry& entry) {
    vr::CommitMsg m;
    m.group = g;
    m.aid = aid;
    m.reply_to = self_;
    SendMsg(entry.view.primary, m);
    return std::pair{aid, g};
  };
  // Unreached participants resolve the outcome via queries (§3.4).
  auto r = co_await group_client_.Request<vr::CommitDoneMsg>(
      g, options_.commit_attempts, kCommitAckTimeout + vr::kForceTimeout,
      send);
  co_return r.has_value();
}

host::Task<void> Cohort::AbortEverywhere(Aid aid, Pset pset,
                                        std::vector<GroupId> extra_groups) {
  // Best-effort abort messages; "delivery of abort messages is not
  // guaranteed in any case: recovery from lost messages is done by using
  // queries" (§4.1). Groups that were merely *attempted* (no reply merged
  // into the pset) may hold locks too, so they are notified as well.
  std::vector<GroupId> groups = vr::PsetGroups(pset);
  for (GroupId g : extra_groups) {
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
      groups.push_back(g);
    }
  }
  for (GroupId g : groups) {
    auto entry = co_await group_client_.Lookup(g);
    if (entry) {
      vr::AbortMsg m;
      m.group = g;
      m.aid = aid;
      SendMsg(entry->view.primary, m);
    }
  }
  // "add an <'aborted', aid> record to the buffer. This record ... is useful
  //  for query processing."
  if (IsActivePrimary() && buffer_.active()) {
    AddRecord(vr::EventRecord::Aborted(aid));
  } else {
    outcomes_.RecordAborted(aid);
  }
  co_return;
}

// ---------------------------------------------------------------------------
// Probes (§3): the server side of GroupClient::Lookup
// ---------------------------------------------------------------------------

void Cohort::OnProbe(const vr::ProbeMsg& m) {
  // Answered only from an active view past the probe's floor; otherwise
  // parked, one per requester, until the next activation (DESIGN.md §16.1).
  if (status_ == Status::kActive && m.newer_than < cur_viewid_) {
    AnswerProbe(m);
  } else {
    parked_probes_[m.reply_to] = m;
  }
}

void Cohort::AnswerProbe(const vr::ProbeMsg& m) {
  vr::ProbeReplyMsg r;
  r.group = group_;
  r.req_id = m.req_id;
  r.viewid = cur_viewid_;
  r.view = cur_view_;
  SendMsg(m.reply_to, r);
}

void Cohort::SetActive() {
  status_ = Status::kActive;
  // A parked probe whose floor this view passes is answered now; one whose
  // floor it does not pass waits for a later view.
  std::erase_if(parked_probes_, [this](const auto& entry) {
    if (!(entry.second.newer_than < cur_viewid_)) return false;
    AnswerProbe(entry.second);
    return true;
  });
}

// ---------------------------------------------------------------------------
// Coordinator-server protocol (§3.5)
// ---------------------------------------------------------------------------

void Cohort::OnBeginTxn(const vr::BeginTxnMsg& m) {
  vr::BeginTxnReplyMsg r;
  r.req_id = m.req_id;
  if (!IsActivePrimary() || m.viewid != cur_viewid_) {
    r.status = vr::ReplyStatus::kWrongView;
    FillRedirect(r);
    SendMsg(m.reply_to, r);
    return;
  }
  Aid aid;
  aid.coordinator_group = group_;
  aid.view = cur_viewid_;
  aid.seq = next_txn_seq_++;
  TxnState& t = txns_[aid];
  t.active = true;
  t.external_since = host_.Now();
  r.status = vr::ReplyStatus::kOk;
  r.aid = aid;
  SendMsg(m.reply_to, r);
}

void Cohort::OnCommitReq(const vr::CommitReqMsg& m) {
  if (!IsActivePrimary()) return;  // client re-probes on timeout
  if (const TxnState* t = FindTxn(m.aid);
      t != nullptr && t->committing_external) {
    return;  // duplicate in flight
  }
  tasks_.Spawn(RunCommitReq(m));
}

host::Task<void> Cohort::RunCommitReq(vr::CommitReqMsg m) {
  TxnOutcome outcome = outcomes_.Lookup(m.aid);
  if (outcome == TxnOutcome::kUnknown) {
    if (const TxnState* t = FindTxn(m.aid); t == nullptr || !t->active) {
      // Expired (unilaterally aborted) or never begun here.
      outcome = TxnOutcome::kAborted;
    } else {
      txns_[m.aid].committing_external = true;
      outcome = co_await RunTwoPhaseCommit(m.aid, m.pset);
      EndCoordination(m.aid);
      CountOutcome(outcome);
    }
  }
  vr::CommitReqReplyMsg r;
  r.req_id = m.req_id;
  r.outcome = outcome;
  SendMsg(m.reply_to, r);
}

void Cohort::OnAbortReq(const vr::AbortReqMsg& m) {
  if (!IsActivePrimary()) return;
  const TxnState* t = FindTxn(m.aid);
  if (t == nullptr || !t->active) return;
  if (t->committing_external) return;  // too late
  EndCoordination(m.aid);
  ++stats_.txns_aborted;
  tasks_.Spawn(AbortEverywhere(m.aid, m.pset));
}

void Cohort::SweepExternalTxns() {
  // "if no reply is forthcoming, it can abort the transaction unilaterally."
  const host::Time now = host_.Now();
  std::vector<Aid> expired;
  for (const auto& [aid, t] : txns_) {
    if (!t.external_since || t.committing_external) continue;
    if (now - *t.external_since >= kExternalTxnTimeout) {
      expired.push_back(aid);
    }
  }
  for (const Aid& aid : expired) {
    EndCoordination(aid);
    ++stats_.txns_aborted;
    tasks_.Spawn(AbortEverywhere(aid, Pset{}));
  }
}

}  // namespace vsr::core
