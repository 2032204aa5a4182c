// Cohort lifecycle, frame dispatch, failure detection, and query answering.
#include "core/cohort.h"

#include <cstdarg>
#include <cstdio>

namespace vsr::core {

namespace {
// The buffer grants leases only when backup reads are on: with the option
// off no lease frames exist at all (DESIGN.md §14 determinism contract).
vr::CommBufferOptions BufferOptionsFor(const CohortOptions& o) {
  vr::CommBufferOptions b = o.buffer;
  b.lease_duration = o.backup_reads ? o.read_lease_duration : 0;
  return b;
}
}  // namespace

const char* StatusName(Status s) {
  switch (s) {
    case Status::kActive:
      return "active";
    case Status::kViewManager:
      return "view-manager";
    case Status::kUnderling:
      return "underling";
    case Status::kCrashed:
      return "crashed";
  }
  return "?";
}

Cohort::Cohort(host::Host& hst, net::Transport& network,
               Directory& directory, storage::StableStore& stable,
               GroupId group, Mid self, std::vector<Mid> configuration,
               CohortOptions options)
    : host_(hst),
      net_(network),
      directory_(directory),
      stable_(stable),
      options_(options),
      group_(group),
      self_(self),
      configuration_(std::move(configuration)),
      store_(hst),
      buffer_(
          hst, BufferOptionsFor(options),
          [this](Mid to, const vr::BufferBatchMsg& b) { SendMsg(to, b); },
          [this] {
            // §3 footnote 1: an abandoned force means a communication
            // failure — switch to running the view change algorithm.
            if (status_ == Status::kActive) BecomeViewManager();
          },
          [this](Mid backup) { ServeSnapshot(backup); },
          [this](Mid backup, std::uint64_t stable_ts) {
            SendLeaseGrant(backup, stable_ts);
          }),
      snap_server_(
          hst, options.snapshot,
          [this](Mid to, const vr::SnapshotChunkMsg& m) { SendMsg(to, m); }),
      elog_(hst, stable, options.event_log,
            "elog/" + std::to_string(self), self),
      reply_waiters_(hst.timers()),
      prepare_waiters_(hst.timers()),
      commit_waiters_(hst.timers()),
      query_waiters_(hst.timers()),
      probe_waiters_(hst.timers()),
      bool_waiters_(hst.timers()),
      tasks_(hst.timers()) {
  net_.Register(self_, this);
  // Identity is persisted at creation (§4.2: "mymid, configuration, and
  // mygroupid ... are stored on stable storage when the cohort is first
  // created"). These writes are off the critical path.
  wire::Writer w;
  w(group_, self_, configuration_);
  stable_.ForceWrite("identity/" + std::to_string(self_), w.Take(), nullptr,
                     self_);
}

Cohort::~Cohort() {
  // Tear down exactly like a crash so no timer or coroutine outlives us.
  if (status_ != Status::kCrashed) Crash();
}

void Cohort::Trace(const char* fmt, ...) {
  auto& tracer = host_.tracer();
  if (!tracer.Enabled(host::TraceLevel::kDebug)) return;
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  char tag[64];
  std::snprintf(tag, sizeof(tag), "cohort/%u(g%llu,%s)", self_,
                static_cast<unsigned long long>(group_),
                StatusName(status_));
  tracer.Log(host_.Now(), host::TraceLevel::kDebug, tag, "%s", buf);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void Cohort::Start() {
  status_ = Status::kUnderling;
  up_to_date_ = true;  // a fresh cohort's (empty) gstate is meaningful
  net_.SetNodeUp(self_, true);
  SendPings();  // self-arms the periodic ping chain
  fd_timer_ = host_.timers().After(options_.fd_check_interval,
                                     [this] { CheckLiveness(); });
  ArmUnderlingTimer();
  ArmQueryTimer();
}

void Cohort::ResetVolatileState() {
  buffer_.Stop();
  snap_server_.Stop();
  ClearSnapshotSink();
  ResetShardPull(false);
  tasks_.DestroyAll();
  store_.Clear();
  outcomes_.Clear();
  history_.Clear();
  cur_view_ = View{};
  cur_viewid_ = ViewId{};
  max_viewid_ = ViewId{};
  accepts_.clear();
  pending_records_.clear();
  batch_stash_.clear();
  applied_ts_ = 0;
  adopting_ = false;
  log_recovered_ = false;
  recovered_crash_viewid_ = ViewId{};
  log_replay_active_ = false;
  rejoin_pending_ = false;
  call_dedup_.clear();
  txns_.clear();
  RevokeLease();
  lease_grant_seq_ = 0;
  object_commit_vs_.clear();
  commit_vs_floor_ = Viewstamp{};
  cache_.clear();
  last_heard_.clear();
  ++start_view_epoch_;  // invalidates in-flight stable-storage callbacks
  auto& sched = host_.timers();
  sched.Cancel(invite_timer_);
  sched.Cancel(underling_timer_);
  sched.Cancel(ping_timer_);
  sched.Cancel(fd_timer_);
  sched.Cancel(query_timer_);
  sched.Cancel(deferred_vc_timer_);
  sched.Cancel(rejoin_timer_);
  invite_timer_ = underling_timer_ = ping_timer_ = fd_timer_ = query_timer_ =
      deferred_vc_timer_ = rejoin_timer_ = host::kNoTimer;
}

void Cohort::Crash() {
  Trace("crash");
  ResetVolatileState();
  status_ = Status::kCrashed;
  net_.SetNodeUp(self_, false);
  // The log's in-memory batch and any in-flight stable writes die with us:
  // a force still pending (log segment, viewid) must never land after the
  // crash (DESIGN.md §10 — the durable image is a prefix of what was
  // issued).
  elog_.Crash();
  stable_.DropPending(self_);
}

void Cohort::Recover() {
  Trace("recover");
  net_.SetNodeUp(self_, true);
  // Volatile state is gone; cur_viewid survives on stable storage (§4.2).
  up_to_date_ = false;
  cur_viewid_ = ViewId{};
  if (auto bytes = stable_.Read("viewid/" + std::to_string(self_))) {
    wire::Reader r(*bytes);
    const auto vid = r.Read<ViewId>();
    if (r.ok()) cur_viewid_ = vid;
  }
  max_viewid_ = cur_viewid_;
  status_ = Status::kUnderling;  // alive again; the view change runs next
  SendPings();  // self-arms the periodic ping chain
  fd_timer_ = host_.timers().After(options_.fd_check_interval,
                                     [this] { CheckLiveness(); });
  ArmQueryTimer();

  // DESIGN.md §10: replay the durable event log before going amnesiac. The
  // replayed state is a lower bound on what we had acknowledged (the log is
  // write-behind), so we come back as crashed-WITH-state: invitations get a
  // recovered acceptance whose viewid ceiling is the durable viewid (which
  // may exceed the replayed view when the last checkpoint never landed).
  const ViewId stable_viewid = cur_viewid_;
  if (elog_.enabled() && RecoverFromLog()) {
    up_to_date_ = true;
    log_recovered_ = true;
    recovered_crash_viewid_ = std::max(stable_viewid, cur_viewid_);
    max_viewid_ = std::max(max_viewid_, cur_viewid_);
    ++stats_.log_recoveries;
    Trace("log recovery: view <%llu.%u> applied ts %llu",
          static_cast<unsigned long long>(cur_viewid_.counter),
          cur_view_.primary, static_cast<unsigned long long>(applied_ts_));
    // A fresh generation supersedes any torn tail the replay rejected.
    LogCheckpoint(applied_ts_);
    if (cur_view_.primary == self_) {
      // The old primary's communication buffer died with it: it must not
      // resume the view unilaterally ("if it has just recovered from a
      // crash, it initiates a view change") — but it does so carrying its
      // replayed state.
      BecomeViewManager();
      return;
    }
    // Rejoin the replayed view as an active backup at viewstamp
    // <cur_viewid_, applied_ts_>; the primary rewinds our cursor and
    // restreams (or snapshots) the missing tail. Grace-stamp the view
    // members so the failure detector gives the rejoin a liveness window
    // before declaring anyone dead.
    for (Mid m : cur_view_.Members()) last_heard_[m] = host_.Now();
    status_ = Status::kActive;
    rejoin_pending_ = true;
    rejoin_epoch_ =
        std::max(rejoin_epoch_ + 1, static_cast<std::uint64_t>(host_.Now()));
    SendRejoinAck();
    return;
  }
  // "if it has just recovered from a crash, it initiates a view change."
  BecomeViewManager();
}

void Cohort::RecoverDiskless() {
  Trace("recover diskless");
  // The log device is gone; the tiny §4.2 stable state (identity + viewid)
  // is modeled as surviving — without a truthful viewid ceiling a recovered
  // cohort could admit view formations that lost forced events.
  elog_.Erase();
  Recover();
}

// ---------------------------------------------------------------------------
// Failure detection (§4: "Cohorts send periodic 'I'm Alive' messages")
// ---------------------------------------------------------------------------

void Cohort::SendPings() {
  for (Mid peer : configuration_) {
    if (peer == self_) continue;
    SendMsg(peer, vr::PingMsg{group_, self_});
  }
  ping_timer_ = host_.timers().After(options_.ping_interval,
                                       [this] { SendPings(); });
}

void Cohort::NoteAlive(Mid peer) { last_heard_[peer] = host_.Now(); }

void Cohort::CheckLiveness() {
  fd_timer_ = host_.timers().After(options_.fd_check_interval,
                                     [this] { CheckLiveness(); });
  if (status_ != Status::kActive) return;

  const host::Time now = host_.Now();

  std::vector<Mid> alive;
  for (Mid m : configuration_) {
    if (m == self_) {
      alive.push_back(m);
      continue;
    }
    auto it = last_heard_.find(m);
    if (it != last_heard_.end() && now - it->second <= options_.liveness_timeout) {
      alive.push_back(m);
    }
  }

  bool view_member_dead = false;
  for (Mid m : cur_view_.Members()) {
    if (std::find(alive.begin(), alive.end(), m) == alive.end()) {
      view_member_dead = true;
    }
  }
  bool outsider_alive = false;
  for (Mid m : alive) {
    if (!cur_view_.Contains(m)) outsider_alive = true;
  }
  if (!view_member_dead && !outsider_alive) {
    // Condition cleared (e.g. a ping was merely delayed): stand down.
    host_.timers().Cancel(deferred_vc_timer_);
    deferred_vc_timer_ = host::kNoTimer;
    return;
  }

  // §4.1 optimization: an active primary that still holds a sub-majority may
  // adjust its view unilaterally instead of running the full protocol.
  if (options_.unilateral_view_tweaks && IsActivePrimary()) {
    MaybeUnilateralTweak(alive);
    return;
  }

  // §4.1 policy to limit concurrent managers: cohort k defers in proportion
  // to its configuration rank; the highest-priority live cohort moves first.
  std::size_t rank = 0;
  for (std::size_t i = 0; i < configuration_.size(); ++i) {
    if (configuration_[i] == self_) rank = i;
  }
  // The current primary has top priority if it is the one reacting.
  if (cur_view_.primary == self_) rank = 0;
  if (rank == 0) {
    BecomeViewManager();
    return;
  }
  // Defer: if a higher-priority cohort handles it, we will receive its
  // invitation (and leave the active state) before this timer fires.
  if (deferred_vc_timer_ != host::kNoTimer) return;  // already counting down
  const ViewId armed_view = cur_viewid_;
  deferred_vc_timer_ = host_.timers().After(
      static_cast<host::Duration>(rank) * options_.manager_stagger,
      [this, armed_view] {
        deferred_vc_timer_ = host::kNoTimer;
        if (status_ == Status::kActive && cur_viewid_ == armed_view) {
          BecomeViewManager();
        }
      });
}

// ---------------------------------------------------------------------------
// Frame dispatch
// ---------------------------------------------------------------------------

void Cohort::OnFrame(const net::Frame& frame) {
  if (status_ == Status::kCrashed) return;
  const bool from_peer =
      std::find(configuration_.begin(), configuration_.end(), frame.from) !=
      configuration_.end();
  if (from_peer) NoteAlive(frame.from);
  // Intra-group protocol messages (view change, buffer replication) are
  // only meaningful from the group's own cohorts; the configuration is
  // fixed at creation (§2), so anything else is a stray or malformed frame.
  // Snapshot chunks/acks are NOT on this list: the §9 machinery doubles as
  // the shard bulk-move primitive (DESIGN.md §11), whose transfers cross
  // group boundaries — they are gated per-case below instead.
  switch (static_cast<vr::MsgType>(frame.type)) {
    case vr::MsgType::kInvite:
    case vr::MsgType::kAccept:
    case vr::MsgType::kInitView:
    case vr::MsgType::kBufferBatch:
    case vr::MsgType::kBufferAck:
    case vr::MsgType::kLeaseGrant:
      if (!from_peer) return;
      break;
    default:
      break;
  }
  switch (static_cast<vr::MsgType>(frame.type)) {
    case vr::MsgType::kPing: {
      break;  // liveness noted above; a ping carries nothing else
    }
    case vr::MsgType::kInvite: {
      auto m = vr::DecodeFrame<vr::InviteMsg>(frame.payload);
      if (m && m->group == group_) OnInvite(*m);
      break;
    }
    case vr::MsgType::kAccept: {
      auto m = vr::DecodeFrame<vr::AcceptMsg>(frame.payload);
      if (m && m->group == group_) OnAccept(*m);
      break;
    }
    case vr::MsgType::kInitView: {
      auto m = vr::DecodeFrame<vr::InitViewMsg>(frame.payload);
      if (m && m->group == group_) OnInitView(*m);
      break;
    }
    case vr::MsgType::kBufferBatch: {
      auto m = vr::DecodeFrame<vr::BufferBatchMsg>(frame.payload);
      if (m && m->group == group_) OnBufferBatch(*m);
      break;
    }
    case vr::MsgType::kBufferAck: {
      auto m = vr::DecodeFrame<vr::BufferAckMsg>(frame.payload);
      if (m && m->group == group_ && IsActivePrimary()) buffer_.OnAck(*m);
      break;
    }
    case vr::MsgType::kSnapshotChunk: {
      auto m = vr::DecodeFrame<vr::SnapshotChunkMsg>(frame.payload);
      if (!m) break;
      if (m->group == group_) {
        // Intra-group catch-up transfer: only our own primary streams these.
        if (from_peer) OnSnapshotChunk(*m);
      } else {
        // Chunks of a cross-group shard pull, stamped with the SOURCE
        // group's id; OnShardChunk validates them against the active pull.
        OnShardChunk(*m);
      }
      break;
    }
    case vr::MsgType::kSnapshotAck: {
      auto m = vr::DecodeFrame<vr::SnapshotAckMsg>(frame.payload);
      // Acks for shard transfers come from the pulling group's primary —
      // not a peer — carrying our group id copied from the chunks; the
      // server validates viewid/vs/offset per registered transfer.
      if (m && m->group == group_ && IsActivePrimary()) OnSnapshotAck(*m);
      break;
    }
    case vr::MsgType::kCall: {
      auto m = vr::DecodeFrame<vr::CallMsg>(frame.payload);
      if (m && m->group == group_) OnCall(*m);
      break;
    }
    case vr::MsgType::kReply: {
      auto m = vr::DecodeFrame<vr::ReplyMsg>(frame.payload);
      if (m) reply_waiters_.Fulfill(m->call_id, std::move(*m));
      break;
    }
    case vr::MsgType::kPrepare: {
      auto m = vr::DecodeFrame<vr::PrepareMsg>(frame.payload);
      if (m && m->group == group_) OnPrepare(*m);
      break;
    }
    case vr::MsgType::kPrepareReply: {
      auto m = vr::DecodeFrame<vr::PrepareReplyMsg>(frame.payload);
      if (m) prepare_waiters_.Fulfill({m->aid, m->from_group}, std::move(*m));
      break;
    }
    case vr::MsgType::kCommit: {
      auto m = vr::DecodeFrame<vr::CommitMsg>(frame.payload);
      if (m && m->group == group_) OnCommit(*m);
      break;
    }
    case vr::MsgType::kCommitDone: {
      auto m = vr::DecodeFrame<vr::CommitDoneMsg>(frame.payload);
      if (m) commit_waiters_.Fulfill({m->aid, m->from_group}, std::move(*m));
      break;
    }
    case vr::MsgType::kAbort: {
      auto m = vr::DecodeFrame<vr::AbortMsg>(frame.payload);
      if (m && m->group == group_) OnAbort(*m);
      break;
    }
    case vr::MsgType::kAbortSub: {
      auto m = vr::DecodeFrame<vr::AbortSubMsg>(frame.payload);
      if (m && m->group == group_) OnAbortSub(*m);
      break;
    }
    case vr::MsgType::kQuery: {
      auto m = vr::DecodeFrame<vr::QueryMsg>(frame.payload);
      if (m) AnswerQuery(*m);
      break;
    }
    case vr::MsgType::kQueryReply: {
      auto m = vr::DecodeFrame<vr::QueryReplyMsg>(frame.payload);
      if (m) query_waiters_.Fulfill(m->aid, std::move(*m));
      break;
    }
    case vr::MsgType::kProbe: {
      auto m = vr::DecodeFrame<vr::ProbeMsg>(frame.payload);
      if (m && m->group == group_) OnProbe(*m);
      break;
    }
    case vr::MsgType::kProbeReply: {
      auto m = vr::DecodeFrame<vr::ProbeReplyMsg>(frame.payload);
      if (m) OnProbeReply(*m);
      break;
    }
    case vr::MsgType::kBeginTxn: {
      auto m = vr::DecodeFrame<vr::BeginTxnMsg>(frame.payload);
      if (m && m->group == group_) OnBeginTxn(*m);
      break;
    }
    case vr::MsgType::kBeginTxnReply:
    case vr::MsgType::kCommitReqReply: {
      // Consumed by client::UnreplicatedClient, not by cohorts.
      break;
    }
    case vr::MsgType::kCommitReq: {
      auto m = vr::DecodeFrame<vr::CommitReqMsg>(frame.payload);
      if (m && m->group == group_) OnCommitReq(*m);
      break;
    }
    case vr::MsgType::kAbortReq: {
      auto m = vr::DecodeFrame<vr::AbortReqMsg>(frame.payload);
      if (m && m->group == group_) OnAbortReq(*m);
      break;
    }
    case vr::MsgType::kShardPull: {
      auto m = vr::DecodeFrame<vr::ShardPullMsg>(frame.payload);
      if (m && m->group == group_) OnShardPull(*m);
      break;
    }
    case vr::MsgType::kLeaseGrant: {
      auto m = vr::DecodeFrame<vr::LeaseGrantMsg>(frame.payload);
      if (m && m->group == group_) OnLeaseGrant(*m);
      break;
    }
    case vr::MsgType::kBackupRead: {
      auto m = vr::DecodeFrame<vr::BackupReadMsg>(frame.payload);
      if (m && m->group == group_) OnBackupRead(*m);
      break;
    }
    case vr::MsgType::kBackupReadReply: {
      // Consumed by client::ReadClient, not by cohorts.
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-transaction state (DESIGN.md §15)
// ---------------------------------------------------------------------------

const Cohort::TxnState* Cohort::FindTxn(Aid aid) const {
  auto it = txns_.find(aid);
  return it == txns_.end() ? nullptr : &it->second;
}

void Cohort::Forget(Aid aid) {
  UpdateTxn(aid, [](TxnState& t) {
    t.prepared.reset();
    t.pending_commit.reset();
    t.last_activity.reset();
    t.dead_subs.clear();
  });
}

void Cohort::EndCoordination(Aid aid) {
  UpdateTxn(aid, [](TxnState& t) {
    t.active = false;
    t.external_since.reset();
    t.committing_external = false;
  });
}

bool Cohort::SubDead(SubAid sub_aid) const {
  const TxnState* t = FindTxn(sub_aid.aid);
  return t != nullptr && t->dead_subs.count(sub_aid.sub) != 0;
}

// ---------------------------------------------------------------------------
// Queries (§3.4)
// ---------------------------------------------------------------------------

TxnOutcome Cohort::LocalOutcome(Aid aid) const {
  TxnOutcome o = outcomes_.Lookup(aid);
  if (o != TxnOutcome::kUnknown) return o;
  if (aid.coordinator_group == group_) {
    if (const TxnState* t = FindTxn(aid); t != nullptr && t->active) {
      return TxnOutcome::kActive;
    }
    // A coordinator view change aborts the group's in-flight transactions
    // (§3.1): if our current view is newer than the transaction's and we
    // have no commit record for it, it is dead.
    if (IsActivePrimary() && up_to_date_ && cur_viewid_ > aid.view) {
      return TxnOutcome::kAborted;
    }
  }
  return TxnOutcome::kUnknown;
}

void Cohort::AnswerQuery(const vr::QueryMsg& m) {
  // "we allow any cohort to respond to a query whenever it knows the
  //  answer" — backups answer from their outcome tables too.
  vr::QueryReplyMsg reply;
  reply.aid = m.aid;
  reply.outcome = LocalOutcome(m.aid);
  SendMsg(m.reply_to, reply);
}

}  // namespace vsr::core
