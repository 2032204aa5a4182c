// Cohort lifecycle, frame dispatch, failure detection, and query answering.
#include "core/cohort.h"

#include <cstdarg>
#include <cstdio>

namespace vsr::core {

namespace {
// A frame visitor made of one handler per message type.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

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
          [this](Mid to, const vr::SnapshotChunkMsg& m) { SendMsg(to, m); }),
      elog_(hst, stable, options.event_log,
            "elog/" + std::to_string(self), self),
      group_client_(hst.timers(), network, directory, self,
                    [this](GroupId g) -> std::optional<GroupClient::Entry> {
                      if (g != group_ || status_ != Status::kActive) {
                        return std::nullopt;
                      }
                      return GroupClient::Entry{cur_viewid_, cur_view_};
                    }),
      bool_waiters_(hst.timers()) {
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
  fd_timer_ = host_.timers().After(kFdCheckInterval,
                                   [this] { CheckLiveness(); });
  ArmUnderlingTimer();
  ArmQueryTimer();
}

void Cohort::ResetVolatileState() {
  buffer_.Stop();
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
  parked_probes_.clear();
  txns_.clear();
  RevokeLease();
  lease_grant_seq_ = 0;
  object_commit_vs_.clear();
  commit_vs_floor_ = Viewstamp{};
  group_client_.Clear();
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
  fd_timer_ = host_.timers().After(kFdCheckInterval,
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
    SetActive();
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
  ping_timer_ = host_.timers().After(kPingInterval, [this] { SendPings(); });
}

void Cohort::NoteAlive(Mid peer) { last_heard_[peer] = host_.Now(); }

void Cohort::CheckLiveness() {
  fd_timer_ = host_.timers().After(kFdCheckInterval,
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

  // §4.1 policy to limit concurrent managers: "a cohort would become a
  // manager only if all higher-priority cohorts appear to be inaccessible".
  // A cohort defers in proportion to the number of higher-ranked cohorts
  // still alive, so the highest-priority live cohort moves at once.
  std::size_t rank = 0;
  for (Mid m : configuration_) {
    if (m == self_) break;
    if (std::find(alive.begin(), alive.end(), m) != alive.end()) ++rank;
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
      static_cast<host::Duration>(rank) * kManagerStagger,
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
  // A message addressed to a group is for that group's cohorts only.
  const auto ours = [this]<typename M>(void (Cohort::*on)(const M&)) {
    return [this, on](const M& m) {
      if (m.group == group_) (this->*on)(m);
    };
  };
  // Intra-group protocol messages (view change, buffer replication, leases)
  // are only meaningful from the group's own cohorts; the configuration is
  // fixed at creation (§2), so anything else is a stray or malformed frame.
  // Snapshot images/acks are NOT among them: the §9 image doubles as the
  // shard bulk-move primitive (DESIGN.md §11), whose transfers cross group
  // boundaries — they are gated per message instead.
  const auto ours_from_peer =
      [this, from_peer]<typename M>(void (Cohort::*on)(const M&)) {
        return [this, on, from_peer](const M& m) {
          if (from_peer && m.group == group_) (this->*on)(m);
        };
      };
  const auto handle = Overloaded{
      // Replies to this cohort's own requests.
      [this]<RequestReply R>(R m) { group_client_.OnReply(std::move(m)); },
      [](const vr::PingMsg&) {},  // liveness noted above
      ours_from_peer(&Cohort::OnInvite),
      ours_from_peer(&Cohort::OnAccept),
      ours_from_peer(&Cohort::OnInitView),
      ours_from_peer(&Cohort::OnBufferBatch),
      ours_from_peer(&Cohort::OnLeaseGrant),
      [&](const vr::BufferAckMsg& m) {
        if (from_peer && m.group == group_ && IsActivePrimary()) {
          buffer_.OnAck(m);
        }
      },
      [&](const vr::SnapshotChunkMsg& m) {
        if (m.group == group_) {
          // Intra-group catch-up image: only our own primary sends these.
          if (from_peer) OnSnapshotChunk(m);
        } else {
          // The image of a cross-group shard pull, stamped with the SOURCE
          // group's id; OnShardChunk validates it against the active pull.
          OnShardChunk(m);
        }
      },
      // Acks for shard images come from the pulling group's primary — not
      // a peer — carrying our group id copied from the image; the server
      // checks that their image is of the view we lead.
      [this](const vr::SnapshotAckMsg& m) {
        if (m.group == group_ && IsActivePrimary()) {
          snap_server_.OnAck(m, cur_viewid_);
        }
      },
      ours(&Cohort::OnCall),
      ours(&Cohort::OnPrepare),
      ours(&Cohort::OnCommit),
      ours(&Cohort::OnAbort),
      ours(&Cohort::OnAbortSub),
      ours(&Cohort::OnProbe),
      ours(&Cohort::OnBeginTxn),
      ours(&Cohort::OnCommitReq),
      ours(&Cohort::OnAbortReq),
      ours(&Cohort::OnShardPull),
      ours(&Cohort::OnBackupRead),
      // A query names no group: any cohort may be asked (§3.4).
      [this](const vr::QueryMsg& m) { AnswerQuery(m); },
      // A client::ReadClient's reply, never a cohort's.
      [](const vr::BackupReadReplyMsg&) {},
  };
  static_assert(vr::kVisitsEveryMessage<decltype(handle)>,
                "every message type needs a handler");
  vr::VisitFrame(frame.type, frame.payload, handle);
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
  // Every attempt of a transaction this cohort has settled is dead too.
  if (outcomes_.Lookup(sub_aid.aid) != TxnOutcome::kUnknown) return true;
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

}  // namespace vsr::core
