// The server role (Fig. 3) and backup record application (§3.3).
#include <memory>

#include "core/cohort.h"

namespace vsr::core {

// ---------------------------------------------------------------------------
// Awaitable primitives
// ---------------------------------------------------------------------------

host::Task<bool> Cohort::Force(Viewstamp vs) {
  if (!buffer_.active()) co_return false;
  const std::uint64_t corr = NextCorrId();
  // ForceTo may complete synchronously (watermark already reached); the
  // shared flag captures that case before we suspend.
  auto sync = std::make_shared<std::pair<bool, bool>>(false, false);
  buffer_.ForceTo(vs, [this, corr, sync](bool ok) {
    sync->first = true;
    sync->second = ok;
    bool_waiters_.Fulfill(corr, ok);
  });
  if (sync->first) co_return sync->second;
  auto r = co_await bool_waiters_.Await(
      corr, options_.buffer.force_timeout + 100 * host::kMillisecond);
  co_return r.value_or(false);
}

host::Task<bool> Cohort::AcquireLock(std::string uid, Aid aid,
                                    vr::LockMode mode) {
  const std::uint64_t corr = NextCorrId();
  auto sync = std::make_shared<std::pair<bool, bool>>(false, false);
  store_.Acquire(uid, aid, mode, options_.lock_wait_timeout,
                 [this, corr, sync](bool ok) {
                   sync->first = true;
                   sync->second = ok;
                   bool_waiters_.Fulfill(corr, ok);
                 });
  if (sync->first) co_return sync->second;
  auto r = co_await bool_waiters_.Await(
      corr, options_.lock_wait_timeout + 100 * host::kMillisecond);
  co_return r.value_or(false);
}

Viewstamp Cohort::AddRecord(vr::EventRecord rec) {
  switch (rec.type) {
    case vr::EventType::kCommitting:
    case vr::EventType::kCommitted:
      outcomes_.RecordCommitted(rec.sub_aid.aid);
      break;
    case vr::EventType::kAborted:
      outcomes_.RecordAborted(rec.sub_aid.aid);
      break;
    case vr::EventType::kDone:
      outcomes_.RecordDone(rec.sub_aid.aid);
      break;
    default:
      break;
  }
  if (elog_.enabled() && rec.type != vr::EventType::kNewView) {
    // Log a copy carrying the timestamp the buffer just assigned; newview
    // records are covered by the checkpoint that anchors each generation.
    vr::EventRecord copy = rec;
    const Viewstamp vs = buffer_.Add(std::move(rec));
    copy.ts = vs.ts;
    LogApply(copy);
    return vs;
  }
  return buffer_.Add(std::move(rec));
}

// ---------------------------------------------------------------------------
// Gstate snapshot (payload of the newview record)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> Cohort::SnapshotGstate() const {
  wire::Writer w;
  store_.Snapshot(w);
  outcomes_.Snapshot(w);
  // Completed-call replies (replicated duplicate suppression, §3.1).
  std::uint32_t completed = 0;
  for (const auto& [seq, e] : call_dedup_) completed += e.completed ? 1 : 0;
  w.U32(completed);
  for (const auto& [seq, e] : call_dedup_) {
    if (e.completed) w(seq, e.aid, e.reply);
  }
  return w.Take();
}

void Cohort::RestoreGstate(const std::vector<std::uint8_t>& bytes) {
  wire::Reader r(bytes);
  store_.Restore(r);
  outcomes_.Restore(r);
  // Outcomes learned wholesale settle their transactions here too.
  for (auto it = txns_.begin(); it != txns_.end();) {
    const Aid aid = (it++)->first;
    if (outcomes_.Lookup(aid) != TxnOutcome::kUnknown) Forget(aid);
  }
  call_dedup_.clear();
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::uint64_t seq = 0;
    DedupEntry e;
    e.completed = true;
    r(seq, e.aid, e.reply);
    call_dedup_[seq] = std::move(e);
  }
}

// ---------------------------------------------------------------------------
// Backup replication (§3.3)
// ---------------------------------------------------------------------------

void Cohort::SendBufferAck(bool gap, std::uint64_t gap_hi) {
  vr::BufferAckMsg ack;
  ack.group = group_;
  ack.viewid = cur_viewid_;
  ack.from = self_;
  ack.ts = applied_ts_;
  ack.gap = gap;
  ack.gap_hi = gap_hi;
  SendMsg(cur_view_.primary, ack);
}

void Cohort::ApplyRecord(const vr::EventRecord& rec) {
  // Write-behind durable copy (self-guarding: disabled log or replay).
  // Newview records are excluded — each generation's checkpoint covers them.
  if (rec.type != vr::EventType::kNewView) LogApply(rec);
  ++stats_.records_applied_as_backup;
  const bool eager = options_.eager_backup_apply;
  switch (rec.type) {
    case vr::EventType::kCompletedCall: {
      if (eager) {
        store_.ApplyEffects(rec.sub_aid, rec.effects);
      } else {
        pending_records_.push_back(rec);
      }
      // Reconstruct the reply so this cohort can re-answer the call if it
      // becomes primary (replicated duplicate suppression).
      if (rec.call_seq != 0) {
        vr::ReplyMsg reply;
        reply.status = vr::ReplyStatus::kOk;
        reply.result = rec.result;
        reply.pset = rec.nested_pset;
        reply.pset.push_back(
            vr::PsetEntry{group_, Viewstamp{cur_viewid_, rec.ts},
                          rec.sub_aid.sub});
        call_dedup_[rec.call_seq] =
            DedupEntry{true, rec.sub_aid.aid, std::move(reply)};
      }
      break;
    }
    case vr::EventType::kCommitting:
      outcomes_.RecordCommitted(rec.sub_aid.aid);
      break;
    case vr::EventType::kCommitted:
      outcomes_.RecordCommitted(rec.sub_aid.aid);
      Forget(rec.sub_aid.aid);
      PruneDedup(rec.sub_aid.aid);
      if (eager) {
        // Stamp the installed bases with the committed record's viewstamp:
        // the admission bound for backup reads (DESIGN.md §14).
        NoteInstalled(store_.Commit(rec.sub_aid.aid),
                      Viewstamp{cur_viewid_, rec.ts});
      } else {
        pending_records_.push_back(rec);
      }
      break;
    case vr::EventType::kAborted:
      outcomes_.RecordAborted(rec.sub_aid.aid);
      Forget(rec.sub_aid.aid);
      PruneDedup(rec.sub_aid.aid);
      if (eager) {
        store_.Abort(rec.sub_aid.aid);
      } else {
        pending_records_.push_back(rec);
      }
      break;
    case vr::EventType::kAbortedSub:
      if (eager) {
        store_.AbortSub(rec.sub_aid);
      } else {
        pending_records_.push_back(rec);
      }
      break;
    case vr::EventType::kDone:
      // GC: every participant acknowledged; the outcome will never be
      // queried again.
      outcomes_.RecordDone(rec.sub_aid.aid);
      break;
    case vr::EventType::kShardInstall:
    case vr::EventType::kShardDrop:
      if (eager) {
        ApplyShardRecord(rec);
      } else {
        pending_records_.push_back(rec);
      }
      break;
    case vr::EventType::kNewView:
      break;  // handled in OnBufferBatch adoption paths
  }
}

void Cohort::OnBufferBatch(const vr::BufferBatchMsg& m) {
  // First traffic from the primary we rejoined: it has rewound its cursors
  // for us, so stop re-sending the rejoin ack (a resend would rewind them
  // again and thrash the restream).
  if (rejoin_pending_ && status_ == Status::kActive &&
      m.viewid == cur_viewid_ && m.from == cur_view_.primary) {
    ClearRejoin();
  }
  if (m.events.empty()) return;
  const vr::EventRecord& first = m.events.front();
  const bool opens_view =
      first.type == vr::EventType::kNewView && first.ts == 1;

  // Path 1 — underling joining the view it accepted: "If a 'newview' record
  // for a view with viewid equal to max_viewid arrives from the buffer,
  // await_view initializes the cohort state before returning."
  if (opens_view && !adopting_ && status_ == Status::kUnderling &&
      m.viewid == max_viewid_ && first.view.Contains(self_) &&
      m.from == first.view.primary) {
    adopting_ = true;
    AdoptNewView(first, m.viewid, first.ts);
    return;
  }

  // Path 2 — unilateral view tweak by our active primary (§4.1): adopt a
  // strictly newer view announced directly by its primary, without an
  // invitation round.
  if (opens_view && !adopting_ && m.viewid > max_viewid_ &&
      (status_ == Status::kActive || status_ == Status::kUnderling) &&
      first.view.Contains(self_) && m.from == first.view.primary) {
    adopting_ = true;
    AdoptNewView(first, m.viewid, first.ts);
    return;
  }

  // Path 3 — steady-state backup application in timestamp order. Batches
  // arrive pipelined and may be reordered or lost in flight: records beyond
  // applied_ts_ + 1 are stashed, and the ack carries a gap request naming
  // the exact hole so the primary can fill it without a full retransmission
  // deadline passing.
  if (status_ != Status::kActive || m.viewid != cur_viewid_ ||
      m.from != cur_view_.primary || cur_view_.primary == self_) {
    return;
  }
  for (const vr::EventRecord& rec : m.events) {
    if (rec.ts <= applied_ts_) continue;  // duplicate
    if (rec.ts != applied_ts_ + 1) {
      // Out of order: hold on to it; a bounded stash keeps a byzantine-sized
      // burst from exhausting memory (excess is re-fetched via the gap).
      if (batch_stash_.size() < kMaxBatchStash &&
          batch_stash_.emplace(rec.ts, rec).second) {
        ++stats_.records_stashed_out_of_order;
      }
      continue;
    }
    ApplyRecord(rec);
    applied_ts_ = rec.ts;
    history_.Advance(rec.ts);
    DrainBatchStash();
  }
  // Stashed records may themselves have become applicable (e.g. this batch
  // was the older, hole-filling one).
  DrainBatchStash();
  const bool gap = !batch_stash_.empty();
  if (gap) ++stats_.gap_requests_sent;
  SendBufferAck(gap, gap ? batch_stash_.begin()->first - 1 : 0);
}

// Applies every stashed record that has become contiguous with applied_ts_;
// drops any the primary re-sent in the meantime.
void Cohort::DrainBatchStash() {
  while (!batch_stash_.empty()) {
    auto it = batch_stash_.begin();
    if (it->first <= applied_ts_) {
      batch_stash_.erase(it);  // duplicate of an already-applied record
      continue;
    }
    if (it->first != applied_ts_ + 1) return;  // hole still open
    ApplyRecord(it->second);
    applied_ts_ = it->first;
    history_.Advance(it->first);
    ++stats_.records_applied_from_stash;
    batch_stash_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Snapshot state transfer (DESIGN.md §9)
// ---------------------------------------------------------------------------

// Primary side: a backup's first unreceived record fell below the buffer's GC
// floor (CommBuffer routed it into state-transfer mode), so replaying the
// record suffix can no longer catch it up. Serve it the whole gstate instead.
void Cohort::ServeSnapshot(Mid backup) {
  if (!IsActivePrimary() || !buffer_.active()) return;
  // The snapshot reflects every record added so far (the primary applies its
  // own effects at execution time), so it is identified by the viewstamp of
  // the newest buffered record.
  const Viewstamp vs{cur_viewid_, buffer_.last_ts()};
  snap_server_.Serve(backup, vs, BuildSnapshotPayload());
}

std::shared_ptr<const std::vector<std::uint8_t>> Cohort::BuildSnapshotPayload()
    const {
  // Layout (DESIGN.md §9.2): history, length-prefixed gstate (object store +
  // outcomes + completed-call replies, the same bytes a newview record
  // carries), then the prepared-transaction set — a promoted backup must know
  // which blocked transactions to query coordinators about (§3.4).
  wire::Writer w;
  w(history_, SnapshotGstate());
  WritePreparedSet(w);
  return std::make_shared<const std::vector<std::uint8_t>>(w.Take());
}

void Cohort::WritePreparedSet(wire::Writer& w) const {
  std::uint32_t count = 0;
  for (const auto& [aid, t] : txns_) count += t.prepared ? 1 : 0;
  w.U32(count);
  for (const auto& [aid, t] : txns_) {
    if (t.prepared) w(aid);
  }
  // §3.6 sibling fallback targets travel with the prepared set, so a cohort
  // caught up by snapshot or log replay keeps its coordinator-partition
  // escape hatch.
  w.U32(count);
  for (const auto& [aid, t] : txns_) {
    if (t.prepared) w(aid, *t.prepared);
  }
}

Cohort::PreparedSet Cohort::ReadPreparedSet(wire::Reader& r) {
  PreparedSet prepared;
  const std::uint32_t prep_count = r.U32();
  for (std::uint32_t i = 0; i < prep_count && r.ok(); ++i) {
    prepared[r.Read<Aid>()];
  }
  const std::uint32_t sib_count = r.U32();
  for (std::uint32_t i = 0; i < sib_count && r.ok(); ++i) {
    const Aid aid = r.Read<Aid>();
    r(prepared[aid]);
  }
  return prepared;
}

void Cohort::AdoptPreparedSet(PreparedSet prepared) {
  for (auto it = txns_.begin(); it != txns_.end();) {
    it->second.prepared.reset();
    it = it->second.Empty() ? txns_.erase(it) : std::next(it);
  }
  const host::Time now = host_.Now();
  for (auto& [aid, siblings] : prepared) {
    TxnState& t = txns_[aid];
    t.prepared = std::move(siblings);
    t.last_activity = now;
  }
  if (!prepared.empty()) ArmQueryTimer();
}

void Cohort::OnSnapshotAck(const vr::SnapshotAckMsg& m) {
  snap_server_.OnAck(m);  // dispatch already gated on IsActivePrimary
}

// Backup side: assemble chunks, then install atomically.
void Cohort::OnSnapshotChunk(const vr::SnapshotChunkMsg& m) {
  // Same steady-state gate as record batches: only an active backup of the
  // current view takes snapshots, and only from its primary. The snapshot
  // itself must belong to this view (its ts indexes this view's records).
  if (status_ != Status::kActive || m.viewid != cur_viewid_ ||
      m.from != cur_view_.primary || cur_view_.primary == self_ ||
      m.vs.view != cur_viewid_) {
    return;
  }
  // The primary answered our rejoin with a snapshot (the missing tail fell
  // below its GC floor): the rejoin is being serviced, stop re-sending it.
  if (rejoin_pending_) ClearRejoin();
  if (m.vs.ts <= applied_ts_) {
    // The record stream caught us up past this snapshot before the transfer
    // finished. A plain cumulative ack tells the primary to stand down.
    ClearSnapshotSink();
    SendBufferAck();
    return;
  }
  if (!snap_sink_.OnChunk(m)) return;  // stray/forged chunk: no ack
  // From the first accepted chunk until the install (or a view transition)
  // this cohort's gstate is doomed to be replaced, so view changes must treat
  // it as crashed-equivalent (DoAccept). A transfer whose stream dies is
  // abandoned by the idle timer so that equivalence cannot outlive the
  // serving primary.
  installing_snapshot_ = true;
  // Crashed-equivalent for reads too: the gstate this cohort would serve
  // from is doomed, so any held lease is dropped until the install lands
  // and a fresh grant arrives (DESIGN.md §14).
  RevokeLease();
  host_.timers().Cancel(snap_abandon_timer_);
  snap_abandon_timer_ =
      host_.timers().After(options_.snapshot.install_abandon_timeout,
                             [this] {
                               snap_abandon_timer_ = host::kNoTimer;
                               AbandonSnapshotInstall();
                             });
  if (snap_sink_.complete()) {
    const Viewstamp vs = snap_sink_.vs();
    const std::uint64_t total = snap_sink_.payload().size();
    if (InstallSnapshot(vs, snap_sink_.payload())) {
      ClearSnapshotSink();
      // Final ack at the full offset ends the server's transfer; the buffer
      // ack re-enters the record/ack stream at the snapshot's timestamp.
      vr::SnapshotAckMsg ack;
      ack.group = group_;
      ack.viewid = cur_viewid_;
      ack.from = self_;
      ack.vs = vs;
      ack.offset = total;
      SendMsg(cur_view_.primary, ack);
      SendBufferAck();
    } else {
      // Malformed payload (primary-side encoding bug): never install a
      // partial state. Drop the transfer; the stat surfaces the fault.
      ClearSnapshotSink();
    }
    return;
  }
  vr::SnapshotAckMsg ack;
  ack.group = group_;
  ack.viewid = cur_viewid_;
  ack.from = self_;
  ack.vs = snap_sink_.vs();
  ack.offset = snap_sink_.offset();
  SendMsg(cur_view_.primary, ack);
}

bool Cohort::InstallSnapshot(Viewstamp vs,
                             const std::vector<std::uint8_t>& payload) {
  // All-or-nothing: parse everything into temporaries and validate before
  // touching any cohort state. A truncated or trailing-garbage payload is
  // rejected wholesale.
  wire::Reader r(payload);
  vr::History hist;
  std::vector<std::uint8_t> gstate;
  r(hist, gstate);
  auto prepared = ReadPreparedSet(r);
  if (!r.ok() || !r.AtEnd() || hist.Empty() ||
      hist.Latest().view != vs.view || hist.Latest().ts > vs.ts) {
    ++stats_.snapshot_installs_rejected;
    return false;
  }

  history_ = std::move(hist);
  // The primary's history entry trails its buffer (it advances the entry at
  // view formation, not per record); the snapshot reflects records through
  // vs.ts, so account for them.
  history_.Advance(vs.ts);
  RestoreGstate(gstate);
  AdoptPreparedSet(std::move(prepared));
  // Everything the record stream had in flight is superseded wholesale.
  pending_records_.clear();
  batch_stash_.clear();
  applied_ts_ = vs.ts;
  installing_snapshot_ = false;
  // Every restored base version is conservatively treated as committed at
  // the snapshot point for read admission (DESIGN.md §14).
  ResetCommitStamps(vs);
  if (log_recovered_ && !(cur_viewid_ < recovered_crash_viewid_)) {
    // The snapshot covers every record the primary ever streamed in this
    // view, hence everything we could have acknowledged before the crash:
    // the replayed lower bound has been re-validated and this cohort may
    // answer view changes normally again. Only sound when the stable viewid
    // at recovery did not exceed the replayed view — otherwise we may have
    // lost acknowledgements from a LATER view this snapshot knows nothing
    // about, and must stay crashed-with-state until a view transition.
    log_recovered_ = false;
    recovered_crash_viewid_ = ViewId{};
  }
  // Anchor a fresh log generation at the installed state: the old one's
  // suffix no longer matches applied_ts_ and must not replay after it.
  LogCheckpoint(vs.ts);
  ++stats_.snapshots_installed;
  Trace("installed snapshot at %s (%zu bytes)", vs.ToString().c_str(),
        payload.size());
  return true;
}

void Cohort::ClearSnapshotSink() {
  snap_sink_.Reset();
  installing_snapshot_ = false;
  host_.timers().Cancel(snap_abandon_timer_);
  snap_abandon_timer_ = host::kNoTimer;
}

// The chunk stream went idle for install_abandon_timeout: the serving
// primary crashed or stood down. Install is all-or-nothing, so drop every
// assembled byte and resume answering view changes with the intact
// pre-transfer gstate — staying crashed-equivalent behind a dead transfer
// could block view formation forever (§4 conditions (1)-(3) all need
// normal acceptances this cohort would otherwise never give again).
void Cohort::AbandonSnapshotInstall() {
  if (!snap_sink_.active() && !installing_snapshot_) return;
  ++stats_.snapshot_installs_abandoned;
  Trace("abandoning idle snapshot transfer (%zu bytes assembled)",
        static_cast<std::size_t>(snap_sink_.offset()));
  ClearSnapshotSink();
}

// ---------------------------------------------------------------------------
// ProcContext
// ---------------------------------------------------------------------------

ProcContext::ProcContext(Cohort& cohort, SubAid sub_aid,
                         std::vector<std::uint8_t> args)
    : cohort_(cohort), sub_aid_(sub_aid), args_(std::move(args)) {}

void ProcContext::NoteEffect(const std::string& uid, vr::LockMode mode) {
  auto it = effect_mode_.find(uid);
  if (it == effect_mode_.end()) {
    effect_order_.emplace_back(uid, mode);
    effect_mode_[uid] = mode;
    return;
  }
  if (mode == vr::LockMode::kWrite) {
    it->second = vr::LockMode::kWrite;  // write dominates read
    for (auto& [u, m] : effect_order_) {
      if (u == uid) m = vr::LockMode::kWrite;
    }
  }
}

host::Task<std::optional<std::string>> ProcContext::Read(std::string uid) {
  const bool ok =
      co_await cohort_.AcquireLock(uid, sub_aid_.aid, vr::LockMode::kRead);
  if (!ok) throw TxnError("read-lock timeout on " + uid);
  NoteEffect(uid, vr::LockMode::kRead);
  co_return cohort_.store_.Read(uid, sub_aid_.aid);
}

host::Task<std::optional<std::string>> ProcContext::ReadForUpdate(
    std::string uid) {
  const bool ok =
      co_await cohort_.AcquireLock(uid, sub_aid_.aid, vr::LockMode::kWrite);
  if (!ok) throw TxnError("update-lock timeout on " + uid);
  NoteEffect(uid, vr::LockMode::kWrite);
  co_return cohort_.store_.Read(uid, sub_aid_.aid);
}

host::Task<void> ProcContext::Write(std::string uid, std::string value) {
  const bool ok =
      co_await cohort_.AcquireLock(uid, sub_aid_.aid, vr::LockMode::kWrite);
  if (!ok) throw TxnError("write-lock timeout on " + uid);
  // §3.6: the caller may have declared this attempt dead while it ran. Its
  // versions were discarded then; writing now would leak one into the
  // replacement attempt's reads.
  if (cohort_.SubDead(sub_aid_)) throw TxnError("subaction aborted");
  NoteEffect(uid, vr::LockMode::kWrite);
  cohort_.store_.WriteTentative(uid, sub_aid_, std::move(value));
  co_return;
}

host::Task<std::vector<std::uint8_t>> ProcContext::Call(
    GroupId group, std::string proc, std::vector<std::uint8_t> args) {
  return cohort_.NestedCall(*this, group, std::move(proc), std::move(args));
}

// ---------------------------------------------------------------------------
// Remote call processing (Fig. 3)
// ---------------------------------------------------------------------------

void Cohort::OnCall(const vr::CallMsg& m) {
  // Duplicate suppression first — the "connection information" §3.1
  // assumes. A completed call is re-answered from the stored reply even
  // across view changes (the entry is replicated state); whether its events
  // survived is decided later by compatible() at prepare time.
  auto it = call_dedup_.find(m.call_seq);
  if (it != call_dedup_.end() && (it->second.completed || IsActivePrimary())) {
    ++stats_.duplicate_calls_suppressed;
    if (it->second.completed && IsActivePrimary()) {
      vr::ReplyMsg replay = it->second.reply;
      replay.call_id = m.call_id;  // re-correlate for the retransmission
      SendMsg(m.reply_to, replay);
    } else {
      // Still running: remember the newest retransmission so the eventual
      // reply answers a correlation id the client is still waiting on.
      it->second.latest_call_id = m.call_id;
      it->second.latest_reply_to = m.reply_to;
    }
    return;
  }
  // "If the viewid in the call message is not equal to the primary's
  //  cur_viewid, send back a rejection message containing the new viewid
  //  and view."
  if (!IsActivePrimary() || m.viewid != cur_viewid_) {
    ++stats_.calls_rejected_wrong_view;
    vr::ReplyMsg reject;
    reject.call_id = m.call_id;
    reject.status = vr::ReplyStatus::kWrongView;
    if (status_ == Status::kActive) {
      reject.view_known = true;
      reject.new_viewid = cur_viewid_;
      reject.new_view = cur_view_;
    }
    SendMsg(m.reply_to, reject);
    return;
  }
  DedupEntry running;
  running.aid = m.sub_aid.aid;
  running.latest_call_id = m.call_id;
  running.latest_reply_to = m.reply_to;
  call_dedup_[m.call_seq] = running;
  tasks_.Spawn(RunCall(m));
}

host::Task<void> Cohort::RunCall(vr::CallMsg m) {
  const ViewId call_view = cur_viewid_;
  // The client may retransmit while we execute; answer the newest copy.
  auto latest = [this, &m]() -> std::pair<std::uint64_t, Mid> {
    auto it = call_dedup_.find(m.call_seq);
    if (it != call_dedup_.end() && it->second.latest_call_id != 0) {
      return {it->second.latest_call_id, it->second.latest_reply_to};
    }
    return {m.call_id, m.reply_to};
  };
  vr::ReplyMsg reply;
  reply.call_id = m.call_id;

  auto pit = procs_.find(m.proc);
  if (pit == procs_.end()) {
    reply.status = vr::ReplyStatus::kFailed;
    const std::string err = "unknown procedure: " + m.proc;
    reply.result.assign(err.begin(), err.end());
    auto [cid, to] = latest();
    reply.call_id = cid;
    call_dedup_[m.call_seq] = DedupEntry{true, m.sub_aid.aid, reply};
    SendMsg(to, reply);
    co_return;
  }

  // §3.6: discard tentative versions of subactions the caller has aborted —
  // their abort-sub messages were best-effort and may never have arrived.
  // The dead set also gates completion: a dead attempt still suspended here
  // must not record effects when it eventually finishes.
  for (std::uint32_t dead : m.dead_subs) {
    const SubAid dead_sub{m.sub_aid.aid, dead};
    if (txns_[m.sub_aid.aid].dead_subs.insert(dead).second) {
      store_.AbortSub(dead_sub);
      AddRecord(vr::EventRecord::AbortedSub(dead_sub));
    }
  }

  // §3.6, admission side: a call whose OWN subaction is already dead must
  // not run at all. A delayed transmission of an aborted attempt would
  // otherwise execute concurrently with its replacement and leak its
  // tentative versions into the replacement's reads (the caller gave up on
  // this attempt, so no reply is owed).
  if (SubDead(m.sub_aid)) {
    ++stats_.dead_sub_calls_refused;
    call_dedup_.erase(m.call_seq);
    co_return;
  }

  // Occupy this cohort's serial CPU for the call's service time (0 = free).
  // This is what gives a group finite capacity: calls beyond 1/service_time
  // per second queue here, and only adding groups adds capacity.
  if (options_.call_service_time > 0) {
    const host::Time now = host_.Now();
    const host::Time start = std::max(now, cpu_free_);
    cpu_free_ = start + options_.call_service_time;
    co_await host::Sleep(host_.timers(), cpu_free_ - now);
    // Re-check admission: the view may have moved while queued.
    if (status_ != Status::kActive || cur_viewid_ != call_view ||
        cur_view_.primary != self_) {
      co_return;
    }
  }

  // "Create an empty pset. Then run the call."
  ProcContext ctx(*this, m.sub_aid, m.args);
  ctx.dead_subs_ = m.dead_subs;
  bool failed = false;
  std::string error;
  std::vector<std::uint8_t> result;
  try {
    result = co_await pit->second(ctx);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  // The view may have changed while the procedure was suspended; effects
  // belong to the old view and the reply must not claim success in it.
  if (status_ != Status::kActive || cur_viewid_ != call_view ||
      cur_view_.primary != self_) {
    co_return;
  }

  // The attempt may have been declared dead (§3.6) while the procedure was
  // suspended: its effects must be discarded, not recorded.
  if (SubDead(m.sub_aid)) {
    store_.AbortSub(m.sub_aid);
    call_dedup_.erase(m.call_seq);
    co_return;
  }

  if (failed) {
    reply.status = vr::ReplyStatus::kFailed;
    reply.result.assign(error.begin(), error.end());
    auto [cid, to] = latest();
    reply.call_id = cid;
    call_dedup_[m.call_seq] = DedupEntry{true, m.sub_aid.aid, reply};
    SendMsg(to, reply);
    co_return;
  }

  // "When the call finishes, add a <'completed-call', object-list, aid>
  //  record to the buffer ... Add a <mygroupid, new_vs> pair to the pset and
  //  send back a reply message containing the pset."
  std::vector<vr::ObjectEffect> effects;
  effects.reserve(ctx.effect_order_.size());
  for (const auto& [uid, mode] : ctx.effect_order_) {
    vr::ObjectEffect e;
    e.uid = uid;
    e.mode = mode;
    if (mode == vr::LockMode::kWrite) {
      e.tentative = store_.Read(uid, m.sub_aid.aid);
    }
    effects.push_back(std::move(e));
  }
  const Viewstamp vs = AddRecord(vr::EventRecord::CompletedCall(
      m.sub_aid, std::move(effects), m.call_seq, result, ctx.pset_));
  ++stats_.calls_executed;
  txns_[m.sub_aid.aid].last_activity = host_.Now();

  // §6 ablation: synchronous replication of the completed-call record makes
  // the call itself survive any subsequent view change, at the price of a
  // force on every call's critical path.
  if (options_.force_calls_before_reply) {
    const bool ok = co_await Force(vs);
    if (!ok || status_ != Status::kActive || cur_viewid_ != call_view ||
        cur_view_.primary != self_) {
      co_return;  // could not make it durable; client treats as no reply
    }
  }

  reply.status = vr::ReplyStatus::kOk;
  reply.result = std::move(result);
  reply.pset = ctx.pset_;
  reply.pset.push_back(vr::PsetEntry{group_, vs, m.sub_aid.sub});
  auto [cid, to] = latest();
  reply.call_id = cid;
  call_dedup_[m.call_seq] = DedupEntry{true, m.sub_aid.aid, reply};
  SendMsg(to, reply);
}

// ---------------------------------------------------------------------------
// Two-phase commit, participant side (Fig. 3)
// ---------------------------------------------------------------------------

void Cohort::OnPrepare(const vr::PrepareMsg& m) {
  if (!IsActivePrimary()) {
    vr::PrepareReplyMsg r;
    r.aid = m.aid;
    r.from_group = group_;
    r.status = vr::PrepareStatus::kWrongPrimary;
    if (status_ == Status::kActive) {
      r.view_known = true;
      r.new_viewid = cur_viewid_;
      r.new_view = cur_view_;
    }
    SendMsg(m.reply_to, r);
    return;
  }
  tasks_.Spawn(RunPrepare(m));
}

host::Task<void> Cohort::RunPrepare(vr::PrepareMsg m) {
  vr::PrepareReplyMsg r;
  r.aid = m.aid;
  r.from_group = group_;
  // "refus[e] the prepare and abort the transaction"; for a transaction
  // already aborted here the abort only forgets its state.
  auto refuse = [&] {
    r.status = vr::PrepareStatus::kRefused;
    ++stats_.prepares_refused;
    SendMsg(m.reply_to, r);
    LocalAbortTxn(m.aid);
  };

  // A racing abort (e.g. via query resolution) is final.
  if (outcomes_.Lookup(m.aid) == TxnOutcome::kAborted) {
    refuse();
    co_return;
  }

  // Duplicate transmission of a prepare we already answered. Re-reply
  // idempotently: re-running the compatibility check or the force against a
  // LATER view's history can spuriously refuse, and the refusal path's
  // LocalAbortTxn would destroy a prepared — possibly already committed —
  // transaction, releasing its locks to concurrent readers.
  if (const TxnState* t = FindTxn(m.aid);
      (t != nullptr && t->prepared) ||
      outcomes_.Lookup(m.aid) == TxnOutcome::kCommitted) {
    r.status = vr::PrepareStatus::kPrepared;
    r.read_only = !store_.HasWriteLocks(m.aid);
    ++stats_.duplicate_prepares_answered;
    SendMsg(m.reply_to, r);
    co_return;
  }

  // Duplicates racing with an in-flight prepare (the force below suspends):
  // drop them. The in-flight attempt will reply; the coordinator retries on
  // silence. Running two prepares concurrently would let one attempt's
  // refusal abort the other attempt's successful prepare.
  if (const TxnState* t = FindTxn(m.aid); t != nullptr && t->preparing) {
    co_return;
  }
  TxnMarker preparing(*this, m.aid, &TxnState::preparing);

  // "If compatible(pset, history, mygroupid) ... Otherwise ... refus[e] the
  //  prepare and abort the transaction."
  if (!vr::Compatible(m.pset, group_, history_)) {
    refuse();
    co_return;
  }

  // §3.6: tentative versions from call attempts that are not in the pset
  // belong to aborted subactions and must never be installed.
  std::set<std::uint32_t> live_subs;
  for (const vr::PsetEntry& e : m.pset) {
    if (e.groupid == group_) live_subs.insert(e.sub);
  }
  store_.DiscardSubsExcept(m.aid, live_subs);

  const bool read_only = !store_.HasWriteLocks(m.aid);

  // "perform a force_to(vs_max(pset, mygroupid))" — §3.7 explains why this
  // is required even for read-only participants (read locks must be known to
  // survive a view change); force_read_only_prepare=false is the unsafe
  // ablation demonstrating that.
  const auto vsm = vr::VsMax(m.pset, group_);
  bool force_ok = true;
  if (vsm && (options_.force_read_only_prepare || !read_only)) {
    force_ok = co_await Force(*vsm);
  }
  // While the force was suspended the outcome may have been decided here.
  // An abort (an abort message, a query resolution) is final: refuse,
  // exactly as a prepare arriving after it would be.
  if (!force_ok || !IsActivePrimary() ||
      outcomes_.Lookup(m.aid) == TxnOutcome::kAborted) {
    refuse();
    co_return;
  }

  // A commit (fused pipeline, DESIGN.md §13: a query resolution, or an
  // overlapped fan-out racing a retransmitted prepare) is final too: answer
  // prepared idempotently and record nothing — CommitLocally already
  // installed the versions and released the locks, and a prepared entry
  // would resurrect a dead blocked-txn query target.
  if (outcomes_.Lookup(m.aid) == TxnOutcome::kCommitted) {
    ++stats_.prepares_overtaken_by_commit;
    r.status = vr::PrepareStatus::kPrepared;
    r.read_only = read_only;
    SendMsg(m.reply_to, r);
    // A duplicate of the decision may have been stashed mid-force; running
    // it re-sends the done ack the coordinator is waiting for.
    DrainPendingCommit(m.aid);
    co_return;
  }

  // "release read locks held by the transaction, and then reply prepared."
  store_.ReleaseReadLocks(m.aid);
  r.status = vr::PrepareStatus::kPrepared;
  r.read_only = read_only;
  ++stats_.prepares_ok;
  if (read_only) {
    // "If the transaction is read-only, add a <'committed', aid> record."
    AddRecord(vr::EventRecord::Committed(m.aid));
    store_.Commit(m.aid);  // read-only: installs nothing, releases locks
    Forget(m.aid);
  } else {
    // §3.6 piggyback: the pset names every sibling participant. Remember
    // them as fallback query targets — any sibling that applied the commit
    // decision can answer a §3.4 query authoritatively even when the whole
    // coordinator group is unreachable.
    std::vector<GroupId> siblings;
    for (const vr::PsetEntry& e : m.pset) {
      if (e.groupid == group_ || e.groupid == m.aid.coordinator_group) {
        continue;
      }
      if (std::find(siblings.begin(), siblings.end(), e.groupid) ==
          siblings.end()) {
        siblings.push_back(e.groupid);
      }
    }
    TxnState& state = txns_[m.aid];
    state.prepared = std::move(siblings);
    state.last_activity = host_.Now();
  }
  SendMsg(m.reply_to, r);
  // A commit decision that arrived mid-force was stashed rather than run
  // concurrently with this prepare; apply it now that the prepare resolved.
  DrainPendingCommit(m.aid);
}

void Cohort::PruneDedup(Aid aid) {
  std::erase_if(call_dedup_, [&](const auto& kv) {
    return kv.second.completed && kv.second.aid == aid;
  });
}

std::vector<std::string> Cohort::CommitLocally(Aid aid) {
  std::vector<std::string> installed = store_.Commit(aid);
  outcomes_.RecordCommitted(aid);
  Forget(aid);
  PruneDedup(aid);
  ++stats_.commits_applied;
  return installed;
}

void Cohort::OnCommit(const vr::CommitMsg& m) {
  if (!IsActivePrimary()) {
    vr::CommitDoneMsg r;
    r.aid = m.aid;
    r.from_group = group_;
    r.wrong_primary = true;
    if (status_ == Status::kActive) {
      r.view_known = true;
      r.new_viewid = cur_viewid_;
      r.new_view = cur_view_;
    }
    SendMsg(m.reply_to, r);
    return;
  }
  // A (re)transmitted prepare for this transaction is mid-force. With the
  // fused fan-out this interleaving is routine — the decision can reach us
  // while a duplicate prepare is still suspended — so sequence the commit
  // behind the prepare (DrainPendingCommit at its resolution) instead of
  // letting two coroutines race over the transaction's bookkeeping.
  if (const TxnState* t = FindTxn(m.aid); t != nullptr && t->preparing) {
    ++stats_.commits_stashed_during_prepare;
    txns_[m.aid].pending_commit = m;  // latest transmission wins
    return;
  }
  tasks_.Spawn(RunCommit(m));
}

void Cohort::DrainPendingCommit(Aid aid) {
  auto it = txns_.find(aid);
  if (it == txns_.end() || !it->second.pending_commit) return;
  vr::CommitMsg m = std::move(*it->second.pending_commit);
  it->second.pending_commit.reset();
  if (IsActivePrimary()) tasks_.Spawn(RunCommit(std::move(m)));
  // Not primary anymore: drop it — the coordinator's CommitOne retries at
  // the new primary, and §3.4 queries resolve any transaction it misses.
}

host::Task<void> Cohort::RunCommit(vr::CommitMsg m) {
  // "Release locks and install versions held by the transaction. Add a
  //  <'committed', aid> record to the buffer, do a force_to(new_vs), and
  //  send a done message to the coordinator."
  if (outcomes_.Lookup(m.aid) != TxnOutcome::kCommitted) {
    const std::vector<std::string> installed = CommitLocally(m.aid);
    const Viewstamp vs = AddRecord(vr::EventRecord::Committed(m.aid));
    NoteInstalled(installed, vs);
    const bool ok = co_await Force(vs);
    if (!ok || !IsActivePrimary()) co_return;  // view change resolves it
  } else {
    // Already committed here — via query resolution, or a duplicate of a
    // commit whose force is still in flight. The done tells the coordinator
    // it may write the 'done' record and FORGET the outcome, so it must not
    // be sent until our committed record is stable: otherwise a view change
    // can drop the unstable record, the new primary's blocked-txn query
    // finds the outcome presumed aborted, and a committed transaction is
    // rolled back. Forcing the buffer tail covers the committed record
    // wherever it sits.
    const bool ok = co_await Force(Viewstamp{cur_viewid_, buffer_.last_ts()});
    if (!ok || !IsActivePrimary()) co_return;  // view change resolves it
  }
  vr::CommitDoneMsg done;
  done.aid = m.aid;
  done.from_group = group_;
  SendMsg(m.reply_to, done);
}

void Cohort::LocalAbortTxn(Aid aid) {
  Forget(aid);
  // Already aborted, or committed: the commit decision is final and
  // system-wide, and a late abort (stale message, stale query answer) must
  // never roll it back.
  if (outcomes_.Lookup(aid) != TxnOutcome::kUnknown) return;
  store_.Abort(aid);
  PruneDedup(aid);
  ++stats_.aborts_applied;
  if (IsActivePrimary() && buffer_.active()) {
    AddRecord(vr::EventRecord::Aborted(aid));
  } else {
    outcomes_.RecordAborted(aid);
  }
}

void Cohort::OnAbort(const vr::AbortMsg& m) {
  // "Discard locks and versions held by the aborted transaction and add an
  //  <'aborted', aid> record to the buffer."
  if (!IsActivePrimary()) return;  // lost aborts are recovered via queries
  LocalAbortTxn(m.aid);
}

void Cohort::OnAbortSub(const vr::AbortSubMsg& m) {
  if (!IsActivePrimary()) return;
  if (!txns_[m.sub_aid.aid].dead_subs.insert(m.sub_aid.sub).second) return;
  store_.AbortSub(m.sub_aid);
  AddRecord(vr::EventRecord::AbortedSub(m.sub_aid));
}

// ---------------------------------------------------------------------------
// Blocked-transaction resolution via queries (§3.4)
// ---------------------------------------------------------------------------

void Cohort::ArmQueryTimer() {
  host_.timers().Cancel(query_timer_);
  query_timer_ = host_.timers().After(options_.query_interval,
                                        [this] { QueryBlockedTxns(); });
}

void Cohort::QueryBlockedTxns() {
  ArmQueryTimer();
  if (!IsActivePrimary()) return;
  SweepExternalTxns();
  std::vector<Aid> blocked;
  for (const auto& [aid, t] : txns_) {
    if (t.prepared && !t.querying) blocked.push_back(aid);
  }
  // The idle-transaction janitor (§3.4): abort messages are best-effort, so
  // a transaction whose client vanished (or doomed itself after a no-reply)
  // can leave locks behind. Any lock-holding transaction with no activity
  // for idle_txn_timeout gets queried at its coordinator group. Our own
  // in-flight transactions are exempt.
  const host::Time now = host_.Now();
  for (const Aid& aid : store_.ActiveTxns()) {
    const TxnState* t = FindTxn(aid);
    if (t != nullptr && (t->active || t->querying || t->prepared)) continue;
    if (t == nullptr || !t->last_activity) {
      // First sighting (e.g. inherited through a view change): start the
      // idle clock now.
      txns_[aid].last_activity = now;
      continue;
    }
    if (now - *t->last_activity >= options_.idle_txn_timeout) {
      blocked.push_back(aid);
    }
  }
  for (const Aid& aid : blocked) tasks_.Spawn(ResolveBlockedTxn(aid));
}

host::Task<void> Cohort::ResolveBlockedTxn(Aid aid) {
  // The aid embeds the coordinator's groupid (§3.4), so we know whom to ask;
  // any cohort of that group that knows the outcome may answer. If the whole
  // coordinator group is unreachable (partitioned away mid-decision), fall
  // back to the sibling participants the prepare's pset named (§3.6): a
  // sibling that already applied the decision answers authoritatively from
  // its outcome table, so this group need not stay wedged until the
  // partition heals.
  TxnMarker querying(*this, aid, &TxnState::querying);
  // The coordinator group's cohorts first; the siblings are read only once
  // those are exhausted.
  for (const bool sibling : {false, true}) {
    std::vector<GroupId> groups;
    if (!sibling) {
      groups.push_back(aid.coordinator_group);
    } else if (const TxnState* t = FindTxn(aid); t != nullptr && t->prepared) {
      groups = *t->prepared;
    }
    for (GroupId group : groups) {
      const std::vector<Mid>* config = directory_.Lookup(group);
      if (config == nullptr) continue;
      for (Mid target : *config) {
        if (outcomes_.Lookup(aid) != TxnOutcome::kUnknown) {  // resolved
          Forget(aid);
          co_return;
        }
        ++stats_.queries_sent;
        vr::QueryMsg q;
        q.aid = aid;
        q.reply_to = self_;
        q.reply_group = group_;
        SendMsg(target, q);
        auto r = co_await query_waiters_.Await(aid, options_.probe_timeout);
        if (!r) continue;
        if (r->outcome == TxnOutcome::kCommitted ||
            r->outcome == TxnOutcome::kAborted) {
          ++stats_.queries_resolved;
          if (sibling) ++stats_.sibling_query_resolutions;
          if (r->outcome == TxnOutcome::kAborted) {
            LocalAbortTxn(aid);
          } else if (IsActivePrimary()) {
            // The commit decision is final and system-wide; our volatile
            // prepared set may have been lost in a view change while the
            // transaction's effects survived in the gstate, so install
            // unconditionally.
            const std::vector<std::string> installed = CommitLocally(aid);
            const Viewstamp vs = AddRecord(vr::EventRecord::Committed(aid));
            NoteInstalled(installed, vs);
            co_await Force(vs);
          }
          co_return;
        }
        // A coordinator cohort answering kActive is authoritative: the
        // decision is still being made. A sibling only reports outcomes it has
        // durably recorded; kActive and kUnknown from it mean nothing
        // authoritative — keep asking.
        if (r->outcome == TxnOutcome::kActive && !sibling) co_return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Backup read leases (DESIGN.md §14)
// ---------------------------------------------------------------------------

void Cohort::SendLeaseGrant(Mid backup, std::uint64_t stable_ts) {
  if (!IsActivePrimary() || !options_.backup_reads) return;
  vr::LeaseGrantMsg m;
  m.group = group_;
  m.viewid = cur_viewid_;
  m.from = self_;
  m.seq = ++lease_grant_seq_;
  m.stable_ts = stable_ts;
  m.duration = static_cast<std::uint64_t>(options_.read_lease_duration);
  SendMsg(backup, m);
}

void Cohort::OnLeaseGrant(const vr::LeaseGrantMsg& m) {
  // Only an active backup of the current view takes grants, and only from
  // its own primary. A mid-install cohort's gstate is doomed (crashed-
  // equivalent) and must not re-arm a lease.
  if (!options_.backup_reads || status_ != Status::kActive ||
      installing_snapshot_ || m.viewid != cur_viewid_ ||
      m.from != cur_view_.primary || cur_view_.primary == self_) {
    return;
  }
  // Reordered grant frames: the sequence is monotone per primary, so a
  // stale grant must never rewind the expiry or the stable watermark.
  if (lease_viewid_ == cur_viewid_ && m.seq <= lease_seq_) return;
  lease_viewid_ = m.viewid;
  lease_seq_ = m.seq;
  lease_expires_at_ = host_.Now() + static_cast<host::Duration>(m.duration);
  lease_stable_ts_ = m.stable_ts;
  ++stats_.lease_grants_received;
}

void Cohort::RevokeLease() {
  lease_viewid_ = ViewId{};
  lease_seq_ = 0;
  lease_expires_at_ = 0;
  lease_stable_ts_ = 0;
}

Viewstamp Cohort::EffectiveCommitVs(const std::string& uid) const {
  auto it = object_commit_vs_.find(uid);
  if (it != object_commit_vs_.end()) return std::max(it->second, commit_vs_floor_);
  return commit_vs_floor_;
}

void Cohort::NoteInstalled(const std::vector<std::string>& uids,
                           Viewstamp vs) {
  if (!options_.backup_reads || uids.empty()) return;
  for (const std::string& uid : uids) {
    Viewstamp& slot = object_commit_vs_[uid];
    slot = std::max(slot, vs);
  }
}

void Cohort::ResetCommitStamps(Viewstamp vs) {
  if (!options_.backup_reads) return;
  // Wholesale state replacement: per-object provenance is gone, so every
  // object is treated as committed at the restore point. Reads at a backup
  // then wait until the stable watermark reaches it (moments, in practice).
  object_commit_vs_.clear();
  commit_vs_floor_ = vs;
}

void Cohort::OnBackupRead(const vr::BackupReadMsg& m) {
  tasks_.Spawn(RunBackupRead(m));
}

host::Task<void> Cohort::RunBackupRead(vr::BackupReadMsg m) {
  // Reads charge the same serial CPU as calls — the whole point of lease
  // reads is moving this cost off the primary, so it must be modeled.
  if (options_.call_service_time > 0) {
    const host::Time now = host_.Now();
    const host::Time start = std::max(now, cpu_free_);
    cpu_free_ = start + options_.call_service_time;
    co_await host::Sleep(host_.timers(), cpu_free_ - now);
  }
  // Admission is evaluated at serve time (post-queue): the view or the
  // lease may have moved while the read waited for the CPU.
  vr::BackupReadReplyMsg r;
  r.corr = m.corr;
  r.status = vr::ReadStatus::kWrongLease;
  const bool is_primary = IsActivePrimary();
  bool admitted = false;
  std::uint64_t bound = 0;  // backup-side stable read bound (same-view ts)
  if (is_primary) {
    // The primary serves its own committed state unconditionally — it IS
    // the definition of committed here. Ungated by backup_reads so that a
    // replicated group always answers reads somewhere.
    admitted = true;
  } else if (options_.backup_reads && status_ == Status::kActive &&
             !installing_snapshot_ && cur_view_.primary != self_ &&
             lease_viewid_ == cur_viewid_ &&
             host_.Now() < lease_expires_at_) {
    // Serve only what is (a) applied here and (b) known replicated to a
    // sub-majority as of the lease grant: such state survives every later
    // view formation, so a value served under the lease can never be
    // unwound by a view change (one-copy serializability across views).
    admitted = true;
    bound = std::min(applied_ts_, lease_stable_ts_);
  }
  // Session monotonicity: refuse if the client has observed state this
  // cohort cannot prove it covers. Unlike a missing lease, these refusals
  // are transient (the watermark advances with the next renewal), so they
  // are reported as kTooNew and the client keeps the member in rotation.
  if (admitted) {
    if (m.horizon.view > cur_viewid_) {
      admitted = false;  // we are behind a view the client already saw
      r.status = vr::ReadStatus::kTooNew;
    } else if (!is_primary && m.horizon.view == cur_viewid_ &&
               m.horizon.ts > bound) {
      admitted = false;  // client saw past our stable prefix
      r.status = vr::ReadStatus::kTooNew;
    }
  }
  if (admitted && !is_primary) {
    // Per-object bound: the base version here may have been installed past
    // the lease's stable watermark (applied but not yet sub-majority-acked).
    const Viewstamp ovs = EffectiveCommitVs(m.uid);
    if ((ovs.view == cur_viewid_ && ovs.ts > bound) ||
        ovs.view > cur_viewid_) {
      admitted = false;
      r.status = vr::ReadStatus::kTooNew;
    }
  }
  if (!admitted) {
    ++stats_.reads_refused;
    // Bounce with a primary hint (mirrors the shard router's wrong-shard
    // redirect): the client retries there without a directory round.
    if (status_ == Status::kActive) r.primary_hint = cur_view_.primary;
    SendMsg(m.reply_to, r);
    co_return;
  }
  const Viewstamp served_vs = EffectiveCommitVs(m.uid);
  auto val = store_.ReadCommitted(m.uid);
  if (!val) {
    r.status = vr::ReadStatus::kNotFound;
  } else {
    r.status = vr::ReadStatus::kOk;
    r.value.assign(val->begin(), val->end());
  }
  r.served_vs = served_vs;
  ++stats_.reads_served;
  if (!is_primary) ++stats_.backup_reads_served;
  SendMsg(m.reply_to, r);
}

}  // namespace vsr::core
