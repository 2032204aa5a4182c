// The cohort: one replica of a module, the unit of the paper's algorithm.
//
// A cohort plays every role the paper describes:
//   * backup        — applies event records streamed from the primary (§3.3)
//   * server primary — executes remote calls and acts as a two-phase-commit
//                      participant (Fig. 3)
//   * client primary — runs transactions and acts as coordinator (Fig. 2)
//   * view manager / underling — the view change algorithm (Fig. 5, §4)
//
// Implementation is split by concern:
//   cohort.cc        — lifecycle, frame dispatch, failure detection, queries
//   view_change.cc   — Fig. 5: invitations, acceptances, view formation
//   txn_server.cc    — Fig. 3: calls, prepare/commit/abort, record apply
//   txn_coord.cc     — Fig. 2: transaction driver, remote calls, 2PC,
//                      the coordinator-server protocol (§3.5)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/directory.h"
#include "core/group_client.h"
#include "core/options.h"
#include "core/wait_table.h"
#include "net/transport.h"
#include "host/host.h"
#include "host/task.h"
#include "storage/event_log.h"
#include "storage/stable_store.h"
#include "txn/object_store.h"
#include "txn/outcomes.h"
#include "vr/comm_buffer.h"
#include "vr/events.h"
#include "vr/history.h"
#include "vr/messages.h"
#include "vr/snapshot.h"
#include "vr/types.h"
#include "vr/view_formation.h"

namespace vsr::core {

using vr::Aid;
using vr::GroupId;
using vr::Mid;
using vr::Pset;
using vr::SubAid;
using vr::TxnOutcome;
using vr::View;
using vr::ViewId;
using vr::Viewstamp;

// The cohort status (Fig. 1/4), plus the crashed pseudo-state.
enum class Status : std::uint8_t {
  kActive = 0,
  kViewManager = 1,
  kUnderling = 2,
  kCrashed = 3,
};

const char* StatusName(Status s);

// Thrown inside transaction bodies / procedures when the transaction cannot
// continue (no reply, lock timeout, application failure). The driver turns
// it into an abort.
class TxnError : public std::exception {
 public:
  explicit TxnError(std::string reason) : reason_(std::move(reason)) {}
  const char* what() const noexcept override { return reason_.c_str(); }

 private:
  std::string reason_;
};

struct CallResult {
  bool ok = false;
  std::vector<std::uint8_t> result;
  std::string error;
};

class Cohort;

// Server-side context handed to a registered procedure while it executes at
// the primary (Fig. 3). Read/Write acquire strict-2PL locks (possibly
// suspending); Call makes a nested remote call on behalf of the same
// transaction and subaction.
class ProcContext {
 public:
  ProcContext(Cohort& cohort, SubAid sub_aid,
              std::vector<std::uint8_t> args);
  ProcContext(const ProcContext&) = delete;
  ProcContext& operator=(const ProcContext&) = delete;

  const std::vector<std::uint8_t>& args() const { return args_; }
  std::string ArgsAsString() const {
    return std::string(args_.begin(), args_.end());
  }
  SubAid sub_aid() const { return sub_aid_; }
  Aid aid() const { return sub_aid_.aid; }

  // Reads `uid` under a read lock. nullopt = object does not exist.
  // Throws TxnError on lock timeout.
  host::Task<std::optional<std::string>> Read(std::string uid);

  // Reads `uid` under a WRITE lock — the read-for-update idiom. A procedure
  // that reads a value it will subsequently write must use this: concurrent
  // read-then-upgrade transactions deadlock pairwise (each holds a shared
  // lock the other needs exclusively) and would all time out.
  host::Task<std::optional<std::string>> ReadForUpdate(std::string uid);

  // Writes `uid` under a write lock (creating the object if absent).
  // Throws TxnError on lock timeout.
  host::Task<void> Write(std::string uid, std::string value);

  // Nested remote call to another group (§3; runs under the same subaction,
  // so an aborted attempt discards nested effects too). Throws TxnError if
  // the nested call gets no reply or fails.
  host::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
                                            std::vector<std::uint8_t> args);

  // The accumulated pset for this call (own completed-call entry is added by
  // the engine after the procedure returns).
  const Pset& pset() const { return pset_; }

  // The group this procedure executes at — lets sharded procs check the
  // placement directory ("am I still the owner of this key?") before
  // serving. Defined out of line (Cohort is incomplete here).
  GroupId group() const;

 private:
  friend class Cohort;
  Cohort& cohort_;
  SubAid sub_aid_;
  std::vector<std::uint8_t> args_;
  Pset pset_;  // entries contributed by nested calls
  std::vector<std::uint32_t> dead_subs_;  // from the incoming call (§3.6)
  // Effects in acquisition order: uid -> mode (write dominates).
  std::vector<std::pair<std::string, vr::LockMode>> effect_order_;
  std::map<std::string, vr::LockMode> effect_mode_;

  void NoteEffect(const std::string& uid, vr::LockMode mode);
};

using ProcFn =
    std::function<host::Task<std::vector<std::uint8_t>>(ProcContext&)>;

// Client-side transaction handle (Fig. 2): issued to a transaction body
// running at the client group's primary.
class TxnHandle {
 public:
  Aid aid() const { return aid_; }
  bool doomed() const { return doomed_; }
  const Pset& pset() const { return pset_; }
  const std::string& doom_reason() const { return doom_reason_; }

  // Makes a remote call; merges the reply's pset. Throws TxnError when the
  // transaction is doomed (no-reply, failure) — with nested_call_retry the
  // attempt is first retried as a fresh subaction (§3.6).
  host::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
                                            std::vector<std::uint8_t> args);
  host::Task<std::vector<std::uint8_t>> Call(GroupId group, std::string proc,
                                            const std::string& args) {
    return Call(group, std::move(proc),
                std::vector<std::uint8_t>(args.begin(), args.end()));
  }

  // The body's last call. When `group` is the only group the transaction
  // has called, the group runs the call and decides the outcome itself: one
  // round, no prepare, commit or done (DESIGN.md §13.6). Once it decided,
  // the body may make no further call. Otherwise this is a plain Call. The
  // result is empty when the decision arrived without the call's reply (a
  // retransmission or a settle request answered it).
  host::Task<std::vector<std::uint8_t>> FinalCall(
      GroupId group, std::string proc, std::vector<std::uint8_t> args);
  host::Task<std::vector<std::uint8_t>> FinalCall(GroupId group,
                                                 std::string proc,
                                                 const std::string& args) {
    return FinalCall(group, std::move(proc),
                     std::vector<std::uint8_t>(args.begin(), args.end()));
  }

 private:
  friend class Cohort;
  TxnHandle(Cohort& cohort, Aid aid) : cohort_(&cohort), aid_(aid) {}
  // True when no group but `group` has been called or is in the pset.
  bool OnlyTouches(GroupId group) const;
  Cohort* cohort_;
  Aid aid_;
  Pset pset_;
  // Set when a final call's group committed the transaction, or when the
  // coordinator lost its group while settling one (kUnknown).
  std::optional<TxnOutcome> decided_;
  // Every group an attempt was sent to — abort notifications must reach
  // groups whose replies never arrived (they may hold locks).
  std::vector<GroupId> touched_groups_;
  // Subactions aborted by retries (§3.6); travels in every later call.
  std::vector<std::uint32_t> dead_subs_;
  bool doomed_ = false;
  std::string doom_reason_;
  std::uint32_t next_sub_ = 1;  // subaction numbers for retried attempts
};

// Transaction body: runs at the client primary, returns true to request
// commit, false (or throws TxnError) to abort.
using TxnBody = std::function<host::Task<bool>(TxnHandle&)>;

// Aggregate counters consumed by tests and the bench harness.
struct CohortStats {
  std::uint64_t calls_executed = 0;
  std::uint64_t duplicate_calls_suppressed = 0;
  std::uint64_t prepares_refused = 0;
  // Retransmitted prepares for txns already prepared/committed here, answered
  // idempotently without re-running the compatibility check or the force.
  std::uint64_t duplicate_prepares_answered = 0;
  std::uint64_t commits_applied = 0;
  std::uint64_t aborts_applied = 0;
  std::uint64_t txns_committed = 0;  // as coordinator
  std::uint64_t txns_aborted = 0;    // as coordinator
  std::uint64_t txns_unknown = 0;    // coordinator lost its group mid-commit
  // Fused commit path (DESIGN.md §13). As coordinator: transactions whose
  // outcome was reported at committing-record buffer time, with the decision
  // force and commit fan-out overlapped in background, and how many of those
  // background forces were abandoned (view change — the decision then
  // resolves through the replicated record or §3.4 queries, never silently).
  std::uint64_t fused_commits = 0;
  std::uint64_t fused_decision_forces_failed = 0;
  // One-round commit (DESIGN.md §13.6). As coordinator: transactions
  // committed by their lone participant's final call, and settle requests
  // sent after a final call got no decided reply.
  std::uint64_t one_round_commits = 0;
  std::uint64_t settle_requests_sent = 0;
  // As participant: commit decisions that arrived while a (re)transmitted
  // prepare was still forcing, stashed and applied after it resolved instead
  // of racing it, and prepares answered "prepared" because the post-force
  // re-check found the commit had already landed.
  std::uint64_t commits_stashed_during_prepare = 0;
  std::uint64_t prepares_overtaken_by_commit = 0;
  std::uint64_t subaction_retries = 0;
  std::uint64_t view_changes_started = 0;   // became manager
  std::uint64_t view_changes_completed = 0; // entered a new active view
  std::uint64_t views_formed_as_manager = 0;
  std::uint64_t view_formation_failures = 0;
  std::uint64_t unilateral_tweaks = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t queries_resolved = 0;
  // Windowed backup replication: out-of-order batches stashed until the hole
  // fills, and gap requests (nacks) sent to the primary asking for it.
  std::uint64_t records_stashed_out_of_order = 0;
  std::uint64_t records_applied_from_stash = 0;
  std::uint64_t gap_requests_sent = 0;
  // Snapshot state transfer (DESIGN.md §9): whole gstate snapshots installed
  // after falling behind the primary's GC watermark, and assembled payloads
  // rejected before install (malformed — install is all-or-nothing).
  std::uint64_t snapshots_installed = 0;
  std::uint64_t snapshot_installs_rejected = 0;
  // Partial installs dropped because the chunk stream went idle (the serving
  // primary died or stood down): the payload is discarded wholesale and the
  // cohort resumes answering view changes with its intact pre-transfer state.
  std::uint64_t snapshot_installs_abandoned = 0;
  // Durable event log recovery (DESIGN.md §10): successful replays of the
  // local log at Recover() time, records re-applied from it, and rejoin
  // acks sent to resume the current view at the replayed viewstamp.
  std::uint64_t log_recoveries = 0;
  std::uint64_t log_records_replayed = 0;
  std::uint64_t rejoin_acks_sent = 0;
  // Simulated-time instants of the last view-change start/finish, for
  // latency measurements (bench E4).
  host::Time last_view_change_started = 0;
  host::Time last_view_change_completed = 0;
  // Shard rebalancing (DESIGN.md §11): pull requests served as source
  // primary, images installed (as primary or replicated to backups), and
  // ranges garbage-collected after a committed move.
  std::uint64_t shard_pulls_served = 0;
  std::uint64_t shard_images_installed = 0;
  std::uint64_t shard_ranges_dropped = 0;
  // Backup read leases (DESIGN.md §14): grants taken as a backup, reads
  // served (split out those served by a leased backup rather than the
  // primary), and reads bounced back to the primary (no/stale lease, the
  // object or the client's horizon beyond the stable watermark).
  std::uint64_t lease_grants_received = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t backup_reads_served = 0;
  std::uint64_t reads_refused = 0;
  // §3.7: transactions whose participants were all read-only, where the
  // coordinator skipped the committing/done records entirely (each
  // participant already committed at prepare; nobody holds locks or will
  // ever query the decision).
  std::uint64_t read_only_commits_skipped = 0;
  // §3.4 queries resolved by a sibling participant's outcome table while
  // the coordinator group was unreachable (§3.6 pset piggyback).
  std::uint64_t sibling_query_resolutions = 0;
};

class Cohort : public net::FrameHandler {
 public:
  Cohort(host::Host& hst, net::Transport& network,
         Directory& directory, storage::StableStore& stable, GroupId group,
         Mid self, std::vector<Mid> configuration, CohortOptions options);
  ~Cohort() override;

  // -- Lifecycle ---------------------------------------------------------

  // Boots a freshly created cohort (empty, up-to-date state). Cohorts start
  // as underlings; the staggered underling timeout elects the first manager.
  void Start();

  // Fail-stop crash: all volatile state is lost; only the stable store
  // (configuration identity + cur_viewid) survives.
  void Crash();

  // Recovery from a crash. Without a durable event log (or when its replay
  // yields nothing trustworthy) gstate is gone (up_to_date = false) and the
  // cohort immediately initiates a view change (§4). With a replayable log
  // (options.event_log.enabled, DESIGN.md §10) the cohort restores the last
  // checkpoint plus the contiguous logged suffix and rejoins as
  // up-to-date-to-viewstamp-X: it answers invitations as crashed-with-state
  // (view_formation.h condition 4) and asks the current primary for just
  // the missing tail via a rejoin ack.
  void Recover();

  // Recovery after losing stable storage contents too (disk replaced):
  // erases the durable log first, then recovers amnesiac. The durable
  // viewid is deliberately kept when present — §4.2's minimum stable state
  // — so only explicit log state is lost.
  void RecoverDiskless();

  // -- Application API ---------------------------------------------------

  void RegisterProc(std::string name, ProcFn fn);

  // Runs a transaction at this cohort (must be the active primary of the
  // client group; otherwise completes immediately with kAborted).
  // `on_done` receives the outcome: kCommitted, kAborted, or kUnknown when
  // the coordinator could not learn the decision's fate (view change during
  // phase two of its own group).
  void SpawnTransaction(TxnBody body,
                        std::function<void(TxnOutcome)> on_done = nullptr);

  // §3.5: begin/commit a transaction on behalf of an unreplicated client
  // (the coordinator-server role). Exposed as messages (kBeginTxn etc.) and
  // used by client::UnreplicatedClient.

  // -- Introspection -----------------------------------------------------

  Mid mid() const { return self_; }
  GroupId group() const { return group_; }
  Status status() const { return status_; }
  bool IsActivePrimary() const {
    return status_ == Status::kActive && cur_view_.primary == self_;
  }
  bool IsActiveBackup() const {
    return status_ == Status::kActive && cur_view_.primary != self_;
  }
  ViewId cur_viewid() const { return cur_viewid_; }
  const View& cur_view() const { return cur_view_; }
  ViewId max_viewid() const { return max_viewid_; }
  bool up_to_date() const { return up_to_date_; }
  const vr::History& history() const { return history_; }
  const txn::ObjectStore& objects() const { return store_; }
  const txn::OutcomeTable& outcomes() const { return outcomes_; }
  const std::vector<Mid>& configuration() const { return configuration_; }
  const CohortStats& stats() const { return stats_; }
  const vr::CommBuffer& buffer() const { return buffer_; }
  const vr::SnapshotServer& snapshot_server() const { return snap_server_; }
  // Highest contiguously applied record ts (as a backup of the current view).
  std::uint64_t applied_ts() const { return applied_ts_; }
  // A snapshot install is in flight: gstate is about to be replaced, so view
  // changes treat this cohort as crashed-equivalent (DoAccept).
  bool installing_snapshot() const { return installing_snapshot_; }
  // State was replayed from the durable event log and no view transition has
  // re-validated it yet: invitations are answered as crashed-with-state
  // (DESIGN.md §10).
  bool log_recovered() const { return log_recovered_; }
  const storage::EventLog& event_log() const { return elog_; }
  const CohortOptions& options() const { return options_; }
  CohortOptions& mutable_options() { return options_; }
  // Aids this cohort holds per-transaction state for (DESIGN.md §15).
  std::vector<Aid> LiveTxnAids() const {
    std::vector<Aid> aids;
    for (const auto& [aid, t] : txns_) aids.push_back(aid);
    return aids;
  }
  // Coroutines waiting on a prepare, commit or query reply.
  std::size_t PendingTxnReplies() const {
    return prepare_waiters_.pending() + commit_waiters_.pending() +
           group_client_.PendingOutcomeRequests();
  }

  // -- Shard rebalancing (shard.cc, DESIGN.md §11) -----------------------

  // Pulls the committed image of [lo, hi) from `from_group`'s primary and
  // installs it here. Must be the active primary of this group; `done(ok)`
  // fires once the kShardInstall record is forced to a sub-majority of
  // backups (ok=false if this cohort lost the primary role or the pull was
  // superseded). Idempotent: re-pulling the same range overwrites the same
  // base versions — the rebalancer's settle pass relies on this.
  void PullShard(GroupId from_group, std::string lo, std::string hi,
                 std::function<void(bool)> done);

  // Old-owner garbage collection after CommitMove: replicates a kShardDrop
  // record and erases the committed objects in [lo, hi).
  void DropShard(std::string lo, std::string hi);

  bool shard_pull_active() const { return shard_pull_ != nullptr; }

  // Drain probe for the rebalance handoff window: true iff no in-flight
  // transaction still touches [lo, hi) here.
  bool ShardRangeQuiescent(const std::string& lo,
                           const std::string& hi) const {
    return store_.RangeQuiescent(lo, hi);
  }

  // Hooks for tests / harnesses.
  std::function<void(const View&, ViewId)> on_view_started;
  std::function<void()> on_became_primary;

  // net::FrameHandler
  void OnFrame(const net::Frame& frame) override;

 private:
  friend class ProcContext;
  friend class TxnHandle;

  // ---- generic helpers (cohort.cc) ----
  template <typename M>
  void SendMsg(Mid to, const M& m) {
    net_.Send(self_, to, static_cast<std::uint16_t>(M::kType),
              vr::EncodeMsg(m));
  }
  void Trace(const char* fmt, ...)
#if defined(__GNUC__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;
  // Fills a wrong-primary reply's redirect hint with this cohort's view when
  // it has an active one (§3: "send back a rejection message containing the
  // new viewid and view").
  template <typename R>
  void FillRedirect(R& r) const {
    if (status_ != Status::kActive) return;
    r.view_known = true;
    r.new_viewid = cur_viewid_;
    r.new_view = cur_view_;
  }
  void NoteAlive(Mid peer);
  void CheckLiveness();
  void SendPings();
  TxnOutcome LocalOutcome(Aid aid) const;
  void ResetVolatileState();

  // ---- view change (view_change.cc) ----
  void BecomeViewManager();
  void MakeInvitations();
  void DoAccept(ViewId vid, Mid inviter);
  void OnInvite(const vr::InviteMsg& m);
  void OnAccept(const vr::AcceptMsg& m);
  void OnInitView(const vr::InitViewMsg& m);
  void TryFormView();
  // True when every configuration member that has not accepted is suspected
  // by the failure detector: heard from before, but not lately.
  bool OnlySuspectsSilent() const;
  std::vector<vr::Acceptance> Acceptances() const;
  void StartViewAsPrimary(View v, ViewId vid);
  void FinishStartViewAsPrimary(View v, ViewId vid);
  void AdoptNewView(const vr::EventRecord& newview, ViewId vid,
                    std::uint64_t newview_ts);
  // Adopts the view a batch opens with its first (newview) record, and
  // holds the batch's later records for the view.
  void AdoptFromBatch(const vr::BufferBatchMsg& m);
  void ArmUnderlingTimer();
  // Every entry into the active state goes through here: it sets the
  // status and answers the parked probes the view now satisfies.
  void SetActive();
  void EnterActive();
  void MaybeUnilateralTweak(const std::vector<Mid>& alive);

  // ---- durable event log + crash recovery (recovery.cc, DESIGN.md §10) ----
  // Opens a fresh log generation anchored by a checkpoint of the current
  // state (view header, then the state image) at applied ts `ts`. Called
  // at every full-state transition: view entry (primary and backup),
  // snapshot install, and post-replay.
  void LogCheckpoint(std::uint64_t ts);
  // Write-behind append of one applied/added record (group-committed).
  void LogApply(const vr::EventRecord& rec);
  // Replays the durable log: restores the last checkpoint plus the
  // contiguous apply suffix. False = nothing trustworthy (recover amnesiac).
  bool RecoverFromLog();
  // Tells the current primary we rejoined at applied_ts_ (re-armed until the
  // first batch from it arrives).
  void SendRejoinAck();
  void ClearRejoin();

  // ---- backup record application (txn_server.cc) ----
  void OnBufferBatch(const vr::BufferBatchMsg& m);
  // Applies the record at applied_ts_ + 1 and advances past it (§3.3): the
  // one step of batch application, the stash drain and log replay.
  void ApplyNext(const vr::EventRecord& rec);
  void ApplyRecord(const vr::EventRecord& rec);
  // The store effects of one record: an eager backup applies them as the
  // record arrives, a lazy one when it is promoted.
  void ApplyToStore(const vr::EventRecord& rec);
  void DrainBatchStash();
  void SendBufferAck(bool gap = false, std::uint64_t gap_hi = 0);

  // ---- the state image (txn_server.cc, DESIGN.md §9.2) ----
  // The whole cohort state one transfer carries: a §9 snapshot is exactly
  // an image, a §10 checkpoint is a view header followed by one, and a
  // newview record carries one without the prepared set.
  using PreparedSet = std::map<Aid, std::vector<GroupId>>;
  struct StateImage {
    vr::History history;
    std::vector<std::uint8_t> gstate;
    // Prepared aids with their §3.6 sibling groups, in aid order.
    std::optional<PreparedSet> prepared;
  };
  void WriteImage(wire::Writer& w) const;
  // All-or-nothing: the rest of `r` must parse cleanly to its last byte and
  // carry a non-empty history.
  static std::optional<StateImage> ReadImage(wire::Reader& r);
  // Replaces the whole state with an image's parts at applied ts `ts`; the
  // gstate is read in place, never copied. Without a prepared set the
  // prepared entries stay as they are (newview adoption). The caller keeps
  // its own extras: view, timers, leases, log anchor.
  void InstallState(vr::History history,
                    const std::vector<std::uint8_t>& gstate,
                    std::optional<PreparedSet> prepared, std::uint64_t ts);

  // ---- snapshot state transfer (txn_server.cc, DESIGN.md §9) ----
  // Primary side: serialize the state image and start (or refresh) a
  // chunked transfer to `backup`.
  void ServeSnapshot(Mid backup);
  std::shared_ptr<const std::vector<std::uint8_t>> BuildSnapshotPayload()
      const;
  void OnSnapshotAck(const vr::SnapshotAckMsg& m);
  // Backup side: chunk assembly and the atomic install.
  void OnSnapshotChunk(const vr::SnapshotChunkMsg& m);
  bool InstallSnapshot(Viewstamp vs,
                       const std::vector<std::uint8_t>& payload);
  // Discards any partial transfer and clears crashed-equivalence (install
  // done, view transition, or the idle-abandon timer below fired).
  void ClearSnapshotSink();
  void AbandonSnapshotInstall();

  // ---- shard rebalancing (shard.cc, DESIGN.md §11) ----
  // Source side: a foreign primary asked for a range image.
  void OnShardPull(const vr::ShardPullMsg& m);
  // Puller side: chunks of a cross-group transfer (m.group != group_).
  void OnShardChunk(const vr::SnapshotChunkMsg& m);
  // Assembled payload verified: install + replicate + force, then done(ok).
  host::Task<void> FinishShardInstall(std::uint64_t pull_id,
                                     std::vector<std::uint8_t> payload);
  // (Re)sends the pull request to the source group's current primary.
  host::Task<void> SendShardPull();
  // Applies a kShardInstall / kShardDrop record to the store (backup path
  // and lazy-apply promotion share it with the primary).
  void ApplyShardRecord(const vr::EventRecord& rec);
  void ResetShardPull(bool ok);

  // ---- server role (txn_server.cc) ----
  void OnCall(const vr::CallMsg& m);
  host::Task<void> RunCall(vr::CallMsg m);
  // One-round commit, participant side (DESIGN.md §13.6): checks a final
  // call's pset and commits, or aborts; kUnknown = the commit force failed.
  host::Task<TxnOutcome> DecideAlone(Aid aid, Pset pset);
  // A §3.4 query or settle request: the active primary answers it
  // (AnswerOutcome), any other cohort redirects.
  void AnswerQuery(const vr::QueryMsg& m);
  // Sends `reply` (a QueryReplyMsg, or the ReplyMsg of a retransmitted final
  // call of a settled transaction) with this primary's outcome for `aid`.
  // A settle first aborts an undecided transaction. A committed or aborted
  // answer leaves only once the buffer tail is forced (DESIGN.md §13.7);
  // when it cannot be, a settle gets no answer and a query hears kUnknown.
  template <typename Reply>
  host::Task<void> AnswerOutcome(Aid aid, bool settle, Mid to, Reply reply);
  // Forces the whole buffer; true if it became stable and this cohort is
  // still the active primary.
  host::Task<bool> ForceTail();
  void OnPrepare(const vr::PrepareMsg& m);
  host::Task<void> RunPrepare(vr::PrepareMsg m);
  // The participant's checks on a transaction's pset (Fig. 3): false if a
  // call it names did not survive into this view (compatible()); otherwise
  // discards tentative versions of attempts the pset does not name (§3.6).
  bool CheckPset(Aid aid, const Pset& pset);
  void OnCommit(const vr::CommitMsg& m);
  host::Task<void> RunCommit(vr::CommitMsg m);
  // Applies a commit decision stashed while a prepare for `aid` was in
  // flight (fused pipeline, DESIGN.md §13).
  void DrainPendingCommit(Aid aid);
  void OnAbort(const vr::AbortMsg& m);
  void OnAbortSub(const vr::AbortSubMsg& m);
  void LocalAbortTxn(Aid aid);
  void ArmQueryTimer();
  void QueryBlockedTxns();
  host::Task<void> ResolveBlockedTxn(Aid aid);
  // Applies a committed or aborted outcome learned by a query, or recorded
  // here meanwhile, to this participant's copy of the transaction.
  host::Task<void> ApplyOutcome(Aid aid, TxnOutcome outcome);
  // Installs the commit and returns the uids whose base version changed;
  // the caller stamps them (NoteInstalled) with the committed record's
  // viewstamp once it exists.
  std::vector<std::string> CommitLocally(Aid aid);
  // Installs the commit, adds this group's committed record and forces it
  // (false = the force failed).
  host::Task<bool> CommitAndRecord(Aid aid);
  std::vector<std::uint8_t> SnapshotGstate() const;
  void RestoreGstate(const std::vector<std::uint8_t>& bytes);
  // Awaitable force-to (false = abandoned / not primary).
  host::Task<bool> Force(Viewstamp vs);
  // Awaitable strict-2PL lock acquisition (false = timeout/abort).
  host::Task<bool> AcquireLock(std::string uid, Aid aid, vr::LockMode mode);
  // Runs `start`, which reports through the callback it is handed, now or
  // later, and awaits that report for up to `timeout` (false on timeout).
  host::Task<bool> AwaitCallback(
      host::Duration timeout,
      std::function<void(std::function<void(bool)>)> start);
  // Adds a record to the buffer and mirrors its outcome bookkeeping (the
  // primary-side counterpart of ApplyRecord).
  Viewstamp AddRecord(vr::EventRecord rec);
  // The outcome-table effect of a record, the same where it is added and
  // where it is applied.
  void NoteOutcome(const vr::EventRecord& rec);

  // ---- backup read leases (txn_server.cc, DESIGN.md §14) ----
  // Primary side: the buffer's ack path noticed a lease (re)grant is due
  // for `backup` — send one pinned to the current view and stable ts.
  void SendLeaseGrant(Mid backup, std::uint64_t stable_ts);
  // Backup side: take a grant from the current view's primary.
  void OnLeaseGrant(const vr::LeaseGrantMsg& m);
  // Drop any held lease crashed-equivalent (view transitions, snapshot
  // installs, crash): a revoked backup bounces reads until re-granted.
  void RevokeLease();
  // The viewstamp that committed `uid`'s current base version here, as far
  // as this cohort tracked it (the floor covers wholesale restores).
  Viewstamp EffectiveCommitVs(const std::string& uid) const;
  // Stamps freshly installed base versions with the committing record's
  // viewstamp (admission bound for backup reads).
  void NoteInstalled(const std::vector<std::string>& uids, Viewstamp vs);
  // Floor-bump for wholesale state replacement (newview adoption, snapshot
  // or shard installs): every object is conservatively treated as committed
  // at `vs`.
  void ResetCommitStamps(Viewstamp vs);
  void OnBackupRead(const vr::BackupReadMsg& m);
  host::Task<void> RunBackupRead(vr::BackupReadMsg m);

  // ---- client / coordinator role (txn_coord.cc) ----
  // Counts a coordinated transaction's outcome in stats_.
  void CountOutcome(TxnOutcome outcome);
  host::Task<void> TxnDriver(Aid aid, TxnBody body,
                            std::function<void(TxnOutcome)> on_done);
  host::Task<std::vector<std::uint8_t>> ClientCall(
      TxnHandle& h, GroupId group, std::string proc,
      std::vector<std::uint8_t> args, bool final_call);
  host::Task<std::vector<std::uint8_t>> NestedCall(ProcContext& ctx,
                                                  GroupId group,
                                                  std::string proc,
                                                  std::vector<std::uint8_t> args);
  // A final call to the transaction's lone participant (DESIGN.md §13.6).
  host::Task<std::vector<std::uint8_t>> LoneCall(TxnHandle& h, GroupId group,
                                                std::string proc,
                                                std::vector<std::uint8_t> args);
  // Asks `g`'s primary to settle `aid` until it answers committed or
  // aborted; kUnknown once this cohort is no longer the active primary.
  host::Task<TxnOutcome> SettleAt(Aid aid, GroupId g);
  host::Task<TxnOutcome> RunTwoPhaseCommit(Aid aid, Pset pset);
  // Runs `one(g)` for every group at once and waits until all of them
  // finished, or `deadline` passed: true iff all finished and returned true.
  host::Task<bool> FanOut(std::vector<GroupId> groups, host::Duration deadline,
                          std::function<host::Task<bool>(GroupId)> one);
  struct FanOutJoin;
  host::Task<void> JoinOne(host::Task<bool> one,
                          std::shared_ptr<FanOutJoin> join);
  // Prepares `g`; true when it prepared, and then a group that is not
  // read-only joins `plist`.
  host::Task<bool> PrepareOne(Aid aid, Pset pset, GroupId g,
                             std::shared_ptr<std::vector<GroupId>> plist);
  // The commit_fusion = false ablation (bench E2): force the committing
  // record at `decision_vs` before reporting, then run phase two.
  host::Task<TxnOutcome> SerialCommitPhase(Aid aid, std::vector<GroupId> plist,
                                           Viewstamp decision_vs);
  // Phase two: the commit fan-out to the plist and the done record.
  host::Task<void> FinishCommitPhase(Aid aid, std::vector<GroupId> plist);
  // Sends the commit to `g`; true when it acknowledged.
  host::Task<bool> CommitOne(Aid aid, GroupId g);
  host::Task<void> AbortEverywhere(Aid aid, Pset pset,
                                  std::vector<GroupId> extra_groups = {});
  void OnBeginTxn(const vr::BeginTxnMsg& m);
  void OnCommitReq(const vr::CommitReqMsg& m);
  host::Task<void> RunCommitReq(vr::CommitReqMsg m);
  void OnAbortReq(const vr::AbortReqMsg& m);

  void OnProbe(const vr::ProbeMsg& m);
  void AnswerProbe(const vr::ProbeMsg& m);

  // ---- wiring ----
  host::Host& host_;
  net::Transport& net_;
  Directory& directory_;
  storage::StableStore& stable_;
  CohortOptions options_;
  // When options_.call_service_time > 0: the time this cohort's serial CPU
  // becomes free again (calls queue behind it, see RunCall).
  host::Time cpu_free_ = 0;

  // ---- identity (stable, §4.2) ----
  const GroupId group_;
  const Mid self_;
  const std::vector<Mid> configuration_;

  // ---- cohort state (Fig. 4) ----
  Status status_ = Status::kCrashed;
  bool up_to_date_ = true;
  ViewId cur_viewid_;
  View cur_view_;
  ViewId max_viewid_;
  vr::History history_;
  txn::ObjectStore store_;
  txn::OutcomeTable outcomes_;
  vr::CommBuffer buffer_;
  // Snapshot transfers to laggard backups (primary side, DESIGN.md §9).
  vr::SnapshotServer snap_server_;

  // ---- durable event log (DESIGN.md §10) ----
  storage::EventLog elog_;
  // State came from a log replay and counts only as crashed-with-state in
  // view formation until a view transition re-validates it; the ceiling is
  // the stable viewid at recovery time (>= the replayed view when the final
  // checkpoint never became durable).
  bool log_recovered_ = false;
  ViewId recovered_crash_viewid_;
  // A rejoin ack to the replayed view's primary is outstanding.
  bool rejoin_pending_ = false;
  // Recovery-episode tag carried in rejoin acks so the primary services
  // each episode exactly once (duplicates are retransmitted until the first
  // batch arrives and may arrive late). Derived from sim time at recovery —
  // crash wipes memory, but time is monotonic across crashes, so a later
  // recovery always tags a strictly larger epoch.
  std::uint64_t rejoin_epoch_ = 0;
  host::TimerId rejoin_timer_ = host::kNoTimer;
  // Replay in progress: ApplyRecord must not re-append to the log.
  bool log_replay_active_ = false;

  // ---- view change bookkeeping ----
  std::map<Mid, vr::Acceptance> accepts_;  // responses to our invitation
  host::TimerId invite_timer_ = host::kNoTimer;
  host::TimerId underling_timer_ = host::kNoTimer;
  std::uint64_t start_view_epoch_ = 0;  // cancels stale FinishStartView
  host::Time view_change_began_ = 0;

  // ---- backup replication state ----
  std::uint64_t applied_ts_ = 0;  // highest contiguously applied record ts
  bool adopting_ = false;         // newview adoption in flight (stable write)
  // Lazy-apply mode (§3.3 trade-off): records held here until promotion.
  std::vector<vr::EventRecord> pending_records_;
  // Out-of-order records from pipelined batches, keyed by ts, held until the
  // hole before them fills (bounded; overflow is re-fetched via gap request).
  static constexpr std::size_t kMaxBatchStash = 4096;
  std::map<std::uint64_t, vr::EventRecord> batch_stash_;
  // Incoming snapshot assembly (backup side, DESIGN.md §9). While a transfer
  // is in flight (`installing_snapshot_`) this cohort's gstate is about to
  // be wholesale-replaced, so it answers view-change invitations as
  // crashed-equivalent; the flag clears on install or view transition.
  vr::SnapshotSink snap_sink_;
  bool installing_snapshot_ = false;
  // Armed on every accepted chunk; if the stream goes idle for
  // options.snapshot.install_abandon_timeout the partial payload is dropped
  // (all-or-nothing) so a dead transfer cannot leave this cohort
  // crashed-equivalent forever — that would wedge view formation for good
  // when the serving primary itself is the cohort that crashed.
  host::TimerId snap_abandon_timer_ = host::kNoTimer;

  // ---- shard rebalancing (shard.cc, DESIGN.md §11) ----
  // One outstanding cross-group pull at a time (the rebalancer moves one
  // range at a time). The sink assembles chunks exactly like a snapshot
  // transfer, but the payload is a range image, not a whole gstate.
  struct ShardPull {
    std::uint64_t id = 0;  // guards stale timer/coroutine completions
    GroupId from_group = 0;
    std::string lo;
    std::string hi;
    std::function<void(bool)> done;
    vr::SnapshotSink sink;
    host::TimerId retry_timer = host::kNoTimer;
  };
  std::unique_ptr<ShardPull> shard_pull_;
  std::uint64_t next_shard_pull_id_ = 1;

  // Probes waiting for an active view past their floor, one per requester
  // (the latest replaces the earlier); dropped at a crash (DESIGN.md §15).
  std::map<Mid, vr::ProbeMsg> parked_probes_;

  // ---- failure detection ----
  std::map<Mid, host::Time> last_heard_;
  host::TimerId ping_timer_ = host::kNoTimer;
  host::TimerId fd_timer_ = host::kNoTimer;
  // Armed when a lower-priority cohort defers a needed view change to its
  // higher-priority peers (§4.1 ordering policy).
  host::TimerId deferred_vc_timer_ = host::kNoTimer;

  // ---- server role ----
  std::map<std::string, ProcFn> procs_;
  struct DedupEntry {
    bool completed = false;
    Aid aid;             // for pruning when the transaction ends
    vr::ReplyMsg reply;  // valid when completed
    // While the call is running, track the newest retransmission so the
    // eventual reply answers a correlation id the client still waits on
    // (a lock wait can outlast the client's per-transmission timeout).
    std::uint64_t latest_call_id = 0;
    Mid latest_reply_to = 0;
  };
  // Keyed by call_seq. Completed entries are REPLICATED state: they travel
  // in completed-call records and the gstate snapshot, so any primary can
  // re-answer a retransmitted call instead of re-executing it (§3.1's
  // "connection information"). Pruned when the transaction ends.
  std::map<std::uint64_t, DedupEntry> call_dedup_;
  void PruneDedup(Aid aid);
  host::TimerId query_timer_ = host::kNoTimer;

  // ---- per-transaction state (DESIGN.md §15) ----
  // Everything this cohort keeps about one transaction, as participant or as
  // coordinator, in one volatile record: lost on crash, never replicated
  // (only the prepared set travels, in snapshots and checkpoints). A
  // participant forgets its fields when it learns the outcome (Forget); the
  // preparing/querying markers belong to the coroutine that set them.
  struct TxnState {
    // -- participant (Fig. 3) --
    // Prepared here and not yet decided: a §3.4 query target. Holds the
    // sibling participant groups from the prepare's pset — fallback query
    // targets when the coordinator group is unreachable (§3.6).
    std::optional<std::vector<GroupId>> prepared;
    bool preparing = false;  // a prepare's force is in flight
    bool querying = false;   // a blocked-txn resolution is in flight
    // Fused pipeline (DESIGN.md §13): a commit decision that arrived while a
    // prepare was mid-force, applied when that prepare resolves instead of
    // racing its post-force bookkeeping.
    std::optional<vr::CommitMsg> pending_commit;
    // Last activity here: the idle-transaction janitor's clock (§3.4).
    std::optional<host::Time> last_activity;
    // Subactions known dead (§3.6): a dead attempt still running when its
    // abort arrives must not record its effects at completion.
    std::set<std::uint32_t> dead_subs;
    // -- coordinator (Fig. 2, §3.5) --
    bool active = false;  // coordinated here, no outcome reported yet
    // Begun by an unreplicated client (§3.5): begin time for the
    // unilateral-abort sweep, and whether its commit-req is running.
    std::optional<host::Time> external_since;
    bool committing_external = false;

    bool Empty() const {
      return !prepared && !preparing && !querying && !pending_commit &&
             !last_activity && dead_subs.empty() && !active &&
             !external_since && !committing_external;
    }
  };
  // Ordered by aid, so the prepared set is written in aid order.
  std::map<Aid, TxnState> txns_;
  const TxnState* FindTxn(Aid aid) const;
  // Applies `f` to aid's entry, if any, and drops the entry if that left
  // it empty.
  template <typename F>
  void UpdateTxn(Aid aid, F f) {
    auto it = txns_.find(aid);
    if (it == txns_.end()) return;
    f(it->second);
    if (it->second.Empty()) txns_.erase(it);
  }
  // Clears what a learned outcome settles (prepared set, stashed commit,
  // janitor clock, dead subactions) and drops the entry if nothing is left.
  void Forget(Aid aid);
  // The coordinator is done with `aid`: clears the coordinator fields.
  void EndCoordination(Aid aid);
  // The attempt may not run or record effects: the caller declared it dead
  // (§3.6), or this cohort already knows the transaction's outcome.
  bool SubDead(SubAid sub_aid) const;
  // Holds a coroutine-owned marker (preparing/querying) set for its own
  // lifetime, so a coroutine destroyed mid-await clears it too.
  class TxnMarker {
   public:
    TxnMarker(Cohort& cohort, Aid aid, bool TxnState::*marker)
        : cohort_(cohort), aid_(aid), marker_(marker) {
      cohort_.txns_[aid_].*marker_ = true;
    }
    ~TxnMarker() {
      cohort_.UpdateTxn(aid_, [this](TxnState& t) { t.*marker_ = false; });
    }
    TxnMarker(const TxnMarker&) = delete;
    TxnMarker& operator=(const TxnMarker&) = delete;

   private:
    Cohort& cohort_;
    Aid aid_;
    bool TxnState::*marker_;
  };

  // ---- backup read leases (DESIGN.md §14) ----
  // Backup side: the lease currently held, valid only while it pins the
  // current view. lease_stable_ts_ is the primary's stable watermark at
  // grant time — reads are admitted against min(applied_ts_, lease stable).
  ViewId lease_viewid_;
  std::uint64_t lease_seq_ = 0;
  host::Time lease_expires_at_ = 0;
  std::uint64_t lease_stable_ts_ = 0;
  // Primary side: monotone grant sequence (orders reordered grant frames).
  std::uint64_t lease_grant_seq_ = 0;
  // Commit stamps for read admission: uid -> viewstamp of the committed
  // record that installed its current base version; objects not in the map
  // (restored wholesale from a newview gstate / snapshot / shard image) are
  // covered by the floor. Cleared at every view transition.
  std::map<std::string, Viewstamp> object_commit_vs_;
  Viewstamp commit_vs_floor_;

  // ---- coordinator-server role (§3.5) ----
  void SweepExternalTxns();

  // ---- client role ----
  std::uint64_t next_txn_seq_ = 1;
  // Other groups' primaries, calls and retried requests (§3, Fig. 2); its
  // counter issues every correlation id of this cohort.
  GroupClient group_client_;
  // 2PC replies are routed by the key they carry, (aid, replying group);
  // query replies go to group_client_.
  WaitTable<vr::PrepareReplyMsg, std::pair<Aid, GroupId>> prepare_waiters_;
  WaitTable<vr::CommitDoneMsg, std::pair<Aid, GroupId>> commit_waiters_;
  // Force and lock completions are routed through a wait table rather than
  // raw coroutine handles so that coroutine teardown (crash) can never leave
  // the buffer or lock manager holding a dangling resume path.
  WaitTable<bool> bool_waiters_;
  CohortStats stats_;

  // Declared last: destroying the registry tears down suspended coroutines
  // whose awaiter destructors deregister from the tables above.
  host::TaskRegistry tasks_;
};

}  // namespace vsr::core
