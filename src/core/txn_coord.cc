// The client / coordinator role (Fig. 2): transactions, remote calls with
// subaction retry (§3.6), two-phase commit, primary-location caching, and
// the coordinator-server protocol for unreplicated clients (§3.5).
#include <memory>

#include "core/cohort.h"

namespace vsr::core {

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
  if (!want_commit || h.doomed_) {
    co_await AbortEverywhere(aid, h.pset_, h.touched_groups_);
    outcome = TxnOutcome::kAborted;
    ++stats_.txns_aborted;
  } else {
    outcome = co_await RunTwoPhaseCommit(aid, h.pset_);
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
  EndCoordination(aid);
  if (on_done) on_done(outcome);
}

// ---------------------------------------------------------------------------
// Remote calls from the client primary (Fig. 2 "Making a remote call")
// ---------------------------------------------------------------------------

host::Task<std::vector<std::uint8_t>> TxnHandle::Call(
    GroupId group, std::string proc, std::vector<std::uint8_t> args) {
  return cohort_->ClientCall(*this, group, std::move(proc), std::move(args));
}

host::Task<std::vector<std::uint8_t>> Cohort::ClientCall(
    TxnHandle& h, GroupId group, std::string proc,
    std::vector<std::uint8_t> args) {
  if (h.doomed_) throw TxnError("transaction doomed: " + h.doom_reason_);
  if (std::find(h.touched_groups_.begin(), h.touched_groups_.end(), group) ==
      h.touched_groups_.end()) {
    h.touched_groups_.push_back(group);
  }

  const int attempts =
      options_.nested_call_retry ? options_.nested_retry_attempts : 1;
  for (int a = 0; a < attempts; ++a) {
    // §3.6: each attempt is a subaction; without nested transactions the
    // single attempt runs as subaction 0 (top-level work).
    const std::uint32_t sub =
        options_.nested_call_retry ? h.next_sub_++ : 0;
    const SubAid sid{h.aid_, sub};

    auto r = co_await CallAttempt(sid, group, proc, args, h.dead_subs_);
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
      if (auto entry = CacheGet(group)) {
        vr::AbortSubMsg abort_sub;
        abort_sub.group = group;
        abort_sub.sub_aid = sid;
        SendMsg(entry->view.primary, abort_sub);  // best effort
      }
      // The abort-sub may be lost; from now on every call of this
      // transaction carries the dead subaction so servers discard its
      // tentative versions before executing (§3.6).
      h.dead_subs_.push_back(sub);
      vr::ErasePsetSub(h.pset_, sub);
      CacheInvalidate(group);
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
  auto r = co_await CallAttempt(ctx.sub_aid(), group, std::move(proc),
                                std::move(args), ctx.dead_subs_);
  if (!r) throw TxnError("nested call: no reply from group " +
                         std::to_string(group));
  if (r->status != vr::ReplyStatus::kOk) {
    throw TxnError("nested call failed at group " + std::to_string(group));
  }
  vr::MergePset(ctx.pset_, r->pset);
  ctx.nested_groups_.push_back(group);
  co_return std::move(r->result);
}

host::Task<std::optional<vr::ReplyMsg>> Cohort::CallAttempt(
    SubAid sub_aid, GroupId group, std::string proc,
    std::vector<std::uint8_t> args, std::vector<std::uint32_t> dead_subs) {
  // One duplicate-suppression key for every transmission of this attempt.
  const std::uint64_t call_seq = NextCallSeq();
  // Once a transmission has gone unanswered, a view-change rejection of a
  // later transmission is no longer proof that the call never executed —
  // an earlier copy may have run before the change. `ambiguous` tracks that.
  bool ambiguous = false;
  int wrong_view_budget = options_.call_attempts;

  for (int attempt = 0; attempt < options_.call_attempts;) {
    auto entry = co_await CacheLookup(group);
    if (!entry) co_return std::nullopt;  // "If a more recent view cannot be
                                         //  discovered, abort" (Fig. 2)
    vr::CallMsg msg;
    msg.group = group;
    msg.viewid = entry->viewid;
    msg.call_id = NextCorrId();
    msg.call_seq = call_seq;
    msg.reply_to = self_;
    msg.sub_aid = sub_aid;
    msg.dead_subs = dead_subs;
    msg.proc = proc;
    msg.args = args;
    SendMsg(entry->view.primary, msg);

    auto r = co_await reply_waiters_.Await(msg.call_id, options_.call_timeout);
    if (!r) {
      // Retransmit to the same primary; the server's dedup table makes this
      // safe within a view. (Retrying at a *different* primary would risk
      // double execution, which is why no-reply ultimately aborts — Fig. 2.)
      ambiguous = true;
      ++attempt;
      if (attempt == options_.call_attempts) {
        // "we also attempt to update the cache, so that the next use of the
        //  server will not cause an abort."
        CacheInvalidate(group);
      }
      continue;
    }
    if (r->status == vr::ReplyStatus::kWrongView) {
      // Fig. 2 step 4: "update the cache, if possible, and go to step 1" —
      // but the retry is only provably safe when (a) no transmission of this
      // attempt ever went unanswered AND (b) the transport cannot duplicate
      // frames (a duplicate of this very transmission may have executed in
      // the old view before the change). Otherwise: "we must abort the
      // transaction in this case too" (§3.1) — or retry as a fresh
      // subaction when nested transactions are on (§3.6).
      if (r->view_known) {
        CacheUpdate(group, r->new_viewid, r->new_view);
      } else {
        CacheInvalidate(group);
      }
      if (options_.assume_no_duplicates && !ambiguous &&
          wrong_view_budget-- > 0) {
        continue;  // provably never executed
      }
      co_return std::nullopt;  // possibly executed in the old view
    }
    co_return r;  // kOk or kFailed
  }
  co_return std::nullopt;
}

// ---------------------------------------------------------------------------
// Two-phase commit, coordinator side (Fig. 2)
// ---------------------------------------------------------------------------

struct Cohort::PrepareJoin {
  std::size_t remaining = 0;
  bool all_ok = true;
  std::vector<GroupId> plist;  // non-read-only participants
  std::uint64_t corr = 0;
  Cohort* cohort = nullptr;
};

struct Cohort::CommitJoin {
  std::size_t remaining = 0;
  std::size_t acked = 0;
  std::uint64_t corr = 0;
  Cohort* cohort = nullptr;
};

host::Task<TxnOutcome> Cohort::RunTwoPhaseCommit(Aid aid, Pset pset) {
  // "It determines who the participants are from the pset."
  const std::vector<GroupId> participants = vr::PsetGroups(pset);
  if (participants.empty()) co_return TxnOutcome::kCommitted;

  // Phase one, in parallel.
  auto join = std::make_shared<PrepareJoin>();
  join->remaining = participants.size();
  join->corr = NextCorrId();
  join->cohort = this;
  for (GroupId g : participants) tasks_.Spawn(PrepareOne(aid, pset, g, join));
  const auto all_ok = co_await bool_waiters_.Await(
      join->corr,
      static_cast<host::Duration>(options_.prepare_attempts + 1) *
          (options_.prepare_timeout + options_.probe_timeout +
           options_.buffer.force_timeout));

  if (!all_ok.value_or(false)) {
    // "If there is no answer after repeated tries ... or if any participant
    //  refuses to prepare, discard any local locks and versions ... and send
    //  abort messages to the participants."
    co_await AbortEverywhere(aid, pset);
    co_return TxnOutcome::kAborted;
  }

  // Commit point: "add a <'committing', plist, aid> record to the buffer ...
  // and then do a force-to(new_vs)".
  if (!IsActivePrimary()) co_return TxnOutcome::kUnknown;

  // §3.7: all participants read-only. Each of them already added and forced
  // its own <committed> record when it prepared, holds no locks now, and
  // will never query us (queries target prepared, lock-holding txns). The
  // committing record, its force, the commit fan-out, and the done record
  // would replicate a decision nobody reads — skip the lot. Gated on the
  // force_read_only_prepare knob so the unsafe ablation keeps the classic
  // ladder for comparison.
  if (join->plist.empty() && options_.force_read_only_prepare) {
    ++stats_.read_only_commits_skipped;
    co_return TxnOutcome::kCommitted;
  }

  const Viewstamp vs =
      AddRecord(vr::EventRecord::Committing(aid, join->plist));
  if (!options_.commit_fusion) {
    co_return co_await SerialCommitPhase(aid, join->plist, vs);
  }

  // Fused path (DESIGN.md §13), for any number of participants: the decision
  // is visible — to §3.4 queries via the outcome table, and to the backups
  // via the flush ForceTo issues synchronously in this same instant, before
  // the first CommitMsg and before the client callback runs — as soon as it
  // is buffered. Only the ack-counting of that force and the commit fan-out
  // run in background; durability additionally rides the write-behind event
  // log (§10, already appended by AddRecord). An abandoned force (our group
  // started a view change) is counted, not acted on: the record either
  // survived into the new view or participants resolve via §3.4 queries
  // against it.
  ++stats_.fused_commits;
  if (buffer_.active()) {
    buffer_.ForceTo(vs, [this](bool ok) {
      if (!ok) ++stats_.fused_decision_forces_failed;
    });
  } else {
    ++stats_.fused_decision_forces_failed;
  }
  tasks_.Spawn(FinishCommitPhase(aid, join->plist));
  co_return TxnOutcome::kCommitted;
}

host::Task<TxnOutcome> Cohort::SerialCommitPhase(Aid aid,
                                                 std::vector<GroupId> plist,
                                                 Viewstamp decision_vs) {
  const bool forced = co_await Force(decision_vs);
  if (!forced) {
    // The decision record may or may not survive our group's view change;
    // participants will learn the truth via queries (§3.4). We must not
    // claim either outcome.
    co_return TxnOutcome::kUnknown;
  }
  // "Note that user code can continue running as soon as the 'committing'
  //  record has been forced to the backups" — phase two runs in background.
  tasks_.Spawn(FinishCommitPhase(aid, std::move(plist)));
  co_return TxnOutcome::kCommitted;
}

host::Task<void> Cohort::PrepareOne(Aid aid, Pset pset, GroupId g,
                                   std::shared_ptr<PrepareJoin> join) {
  bool ok = false;
  bool read_only = false;
  for (int attempt = 0; attempt < options_.prepare_attempts;) {
    auto entry = co_await CacheLookup(g);
    if (!entry) break;
    vr::PrepareMsg m;
    m.group = g;
    m.aid = aid;
    m.pset = pset;
    m.reply_to = self_;
    SendMsg(entry->view.primary, m);
    auto r = co_await prepare_waiters_.Await(
        {aid, g}, options_.prepare_timeout + options_.buffer.force_timeout);
    if (!r) {
      // "update the cache, if possible, and retry the prepare" — prepares
      // are idempotent at the participant.
      CacheInvalidate(g);
      ++attempt;
      continue;
    }
    if (r->status == vr::PrepareStatus::kPrepared) {
      ok = true;
      read_only = r->read_only;
      break;
    }
    if (r->status == vr::PrepareStatus::kRefused) break;
    // kWrongPrimary: follow the redirect.
    if (r->view_known) {
      CacheUpdate(g, r->new_viewid, r->new_view);
    } else {
      CacheInvalidate(g);
    }
    ++attempt;
  }
  if (!ok) {
    join->all_ok = false;
  } else if (!read_only) {
    // "the plist is a list of non-read-only participants."
    join->plist.push_back(g);
  }
  if (--join->remaining == 0) {
    bool_waiters_.Fulfill(join->corr, join->all_ok);
  }
}

host::Task<void> Cohort::FinishCommitPhase(Aid aid,
                                          std::vector<GroupId> plist) {
  bool all_acked = true;
  if (!plist.empty()) {
    auto join = std::make_shared<CommitJoin>();
    join->remaining = plist.size();
    join->corr = NextCorrId();
    join->cohort = this;
    for (GroupId g : plist) {
      tasks_.Spawn(CommitOne(aid, g, join));
    }
    auto r = co_await bool_waiters_.Await(
        join->corr,
        static_cast<host::Duration>(options_.commit_attempts + 1) *
            (options_.commit_ack_timeout + options_.probe_timeout +
             options_.buffer.force_timeout));
    all_acked = r.value_or(false) && join->acked == plist.size();
  }
  // "when all of them acknowledge the commit, add a <'done', aid> record."
  // The done record garbage-collects the outcome entry — which is only safe
  // once every participant really acknowledged (an unreached participant
  // would later query and must still find the answer).
  if (all_acked && IsActivePrimary() && buffer_.active()) {
    AddRecord(vr::EventRecord::Done(aid));
  }
}

host::Task<void> Cohort::CommitOne(Aid aid, GroupId g,
                                  std::shared_ptr<CommitJoin> join) {
  for (int attempt = 0; attempt < options_.commit_attempts;) {
    auto entry = co_await CacheLookup(g);
    if (!entry) break;
    vr::CommitMsg m;
    m.group = g;
    m.aid = aid;
    m.reply_to = self_;
    SendMsg(entry->view.primary, m);
    auto r = co_await commit_waiters_.Await(
        {aid, g}, options_.commit_ack_timeout + options_.buffer.force_timeout);
    if (r && !r->wrong_primary) {
      ++join->acked;
      break;
    }
    if (r && r->wrong_primary) {
      if (r->view_known) {
        CacheUpdate(g, r->new_viewid, r->new_view);
      } else {
        CacheInvalidate(g);
      }
    } else {
      CacheInvalidate(g);
    }
    ++attempt;
    // Unreached participants resolve the outcome via queries (§3.4).
  }
  if (--join->remaining == 0) bool_waiters_.Fulfill(join->corr, true);
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
    auto entry = co_await CacheLookup(g);
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
// Primary-location cache and probes (§3)
// ---------------------------------------------------------------------------

std::optional<Cohort::CacheEntry> Cohort::CacheGet(GroupId g) const {
  if (g == group_ && status_ == Status::kActive) {
    return CacheEntry{cur_viewid_, cur_view_};
  }
  auto it = cache_.find(g);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void Cohort::CacheUpdate(GroupId g, ViewId vid, const View& v) {
  auto it = cache_.find(g);
  if (it != cache_.end() && it->second.viewid >= vid) return;  // not newer
  cache_[g] = CacheEntry{vid, v};
}

void Cohort::CacheInvalidate(GroupId g) { cache_.erase(g); }

host::Task<std::optional<Cohort::CacheEntry>> Cohort::CacheLookup(GroupId g) {
  if (auto e = CacheGet(g)) co_return e;
  // "To find a server it has not used before, a cohort fetches the
  //  configuration from the location server and communicates with members of
  //  the configuration to determine the current primary and viewid."
  const std::vector<Mid>* config = directory_.Lookup(g);
  if (config == nullptr) co_return std::nullopt;
  for (int round = 0; round < options_.probe_rounds; ++round) {
    for (Mid target : *config) {
      if (auto e = CacheGet(g)) co_return e;  // filled concurrently
      vr::ProbeMsg probe;
      probe.group = g;
      probe.req_id = NextCorrId();
      probe.reply_to = self_;
      SendMsg(target, probe);
      auto r = co_await probe_waiters_.Await(probe.req_id,
                                             options_.probe_timeout);
      if (r && r->known && r->active) {
        CacheUpdate(g, r->viewid, r->view);
        co_return CacheGet(g);
      }
    }
  }
  co_return std::nullopt;
}

void Cohort::OnProbe(const vr::ProbeMsg& m) {
  vr::ProbeReplyMsg r;
  r.group = group_;
  r.req_id = m.req_id;
  r.known = up_to_date_ && cur_viewid_.counter > 0;
  r.active = status_ == Status::kActive;
  if (r.known) {
    r.viewid = cur_viewid_;
    r.view = cur_view_;
  }
  SendMsg(m.reply_to, r);
}

void Cohort::OnProbeReply(const vr::ProbeReplyMsg& m) {
  probe_waiters_.Fulfill(m.req_id, m);
}

// ---------------------------------------------------------------------------
// Coordinator-server protocol (§3.5)
// ---------------------------------------------------------------------------

void Cohort::OnBeginTxn(const vr::BeginTxnMsg& m) {
  vr::BeginTxnReplyMsg r;
  r.req_id = m.req_id;
  if (!IsActivePrimary() || m.viewid != cur_viewid_) {
    r.status = vr::ReplyStatus::kWrongView;
    if (status_ == Status::kActive) {
      r.view_known = true;
      r.new_viewid = cur_viewid_;
      r.new_view = cur_view_;
    }
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
    if (now - *t.external_since >= options_.external_txn_timeout) {
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
