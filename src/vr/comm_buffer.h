// The primary's communication buffer (§2).
//
// "Instead of checkpointing events directly to the backups, the primary
//  maintains a communication buffer (similar to a fifo queue) to which it
//  writes event records. ... Information in the buffer is sent to the
//  backups in timestamp order."
//
// Add() atomically assigns the next timestamp, advances the cohort history,
// and appends the record; records are flushed to backups in background
// (write semantics) and ForceTo() implements the force-to operation: it
// completes once a sub-majority of backups acknowledge everything up to the
// given viewstamp, so that — counting the primary itself — a majority of the
// configuration knows those events. A force that cannot complete within its
// timeout is abandoned and reported, which is the trigger for the cohort to
// run a view change (§3 footnote 1).
//
// Replication is windowed and pipelined, not cumulative rebroadcast:
//  * a per-backup send cursor tracks what is in flight, so a flush only
//    transmits records the backup has never been sent;
//  * at most `window` records may be unacknowledged per backup; beyond that
//    the sender stalls until acks arrive (flow control);
//  * each backup with in-flight records carries a retransmission deadline;
//    only a backup whose acks stall past its deadline gets a go-back-N
//    resend — healthy backups are never sent a record twice;
//  * a backup that observes a hole (records arrived beyond applied+1) sends
//    an explicit gap request in its ack; the primary re-sends exactly the
//    missing range immediately instead of waiting out the deadline;
//  * records are garbage collected below the all-backups-acked watermark,
//    raised to StableTs() - window once the stable watermark runs more than
//    a window ahead of a laggard: a dead or partitioned backup then no
//    longer pins memory — it is routed through snapshot state transfer
//    (DESIGN.md §9) instead of record replay, keeping the resident suffix
//    O(window) instead of O(slowest backup lag).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "host/host.h"
#include "vr/events.h"
#include "vr/history.h"
#include "vr/messages.h"
#include "vr/types.h"

namespace vsr::vr {

// Per-backup ack deadline: in-flight records not acknowledged within this
// window trigger a go-back-N resend to that backup only.
inline constexpr host::Duration kRetransmitInterval = 20 * host::kMillisecond;
// A force that has not satisfied a sub-majority within this window is
// abandoned (communication failure ⇒ view change).
inline constexpr host::Duration kForceTimeout = 400 * host::kMillisecond;
// Max records per BufferBatch message.
inline constexpr std::size_t kMaxBatch = 64;

struct CommBufferOptions {
  // Background flush delay: how long Add()ed records may linger before being
  // sent ("at a convenient time"). ForceTo flushes immediately. Swept by
  // bench A1.
  host::Duration flush_delay = 500 * host::kMicrosecond;
  // Max in-flight (sent but unacknowledged) records per backup. E11 and E12
  // shrink it to reach the snapshot path.
  std::size_t window = 1024;
  // Snapshot-based catch-up (DESIGN.md §9): GC may release records past a
  // laggard's ack (bounding memory by `window` past StableTs()) and the
  // laggard is served a snapshot. Off = the pre-snapshot behavior — GC waits
  // for every backup and catch-up replays the full record suffix (ablation
  // A6, bench E11).
  bool snapshot_catchup = true;
  // Backup read leases (DESIGN.md §14): when nonzero, processing an ack
  // from a backup re-grants it a read lease of this duration once at least
  // half the duration has elapsed since the previous grant — renewal rides
  // the ack traffic, no dedicated timer. 0 disables granting entirely. The
  // cohort sets it from CohortOptions::read_lease_duration when
  // backup_reads is on.
  host::Duration lease_duration = 0;
};

class CommBuffer {
 public:
  // send(to, batch) transmits a batch to one backup. on_force_failed() fires
  // when a force is abandoned. on_needs_snapshot(backup) fires when a backup
  // falls behind the GC watermark and must catch up via state transfer; the
  // owner is expected to serve it a snapshot (DESIGN.md §9).
  // on_lease(backup, stable_ts) fires when the lease half-life policy wants
  // a fresh grant sent to `backup`; the owner builds and sends the
  // LeaseGrantMsg (it knows the viewid and its own mid is already here, but
  // message construction stays with the cohort, like batches).
  CommBuffer(host::Host& hst, CommBufferOptions options,
             std::function<void(Mid, const BufferBatchMsg&)> send,
             std::function<void()> on_force_failed,
             std::function<void(Mid)> on_needs_snapshot = nullptr,
             std::function<void(Mid, std::uint64_t)> on_lease = nullptr);
  ~CommBuffer() { Stop(); }
  CommBuffer(const CommBuffer&) = delete;
  CommBuffer& operator=(const CommBuffer&) = delete;

  // Begins operating for a view this cohort leads. `history` is the cohort's
  // history; Add() advances its last entry. `config_size` is the size of the
  // whole configuration (sub-majority arithmetic is over the configuration,
  // not the view).
  void StartView(ViewId viewid, std::vector<Mid> backups,
                 std::size_t config_size, GroupId group, Mid self,
                 History* history);

  // Stops all activity (cohort stopped being primary, or crashed). Pending
  // forces fail silently (their transactions resolve via the view change).
  void Stop();

  bool active() const { return active_; }
  ViewId viewid() const { return viewid_; }
  std::uint64_t last_ts() const { return next_ts_ - 1; }

  // The add operation (§3): assigns the event a timestamp, advances the
  // history, appends to the buffer, schedules a background flush. Returns
  // the event's viewstamp.
  Viewstamp Add(EventRecord record);

  // The force-to operation (§3). Completes with true once a sub-majority of
  // backups ack all events of the current view with timestamps <= vs.ts;
  // completes immediately (true) if vs is not for the current view;
  // completes with false on a stopped buffer (the events were never
  // replicated) or if abandoned. The callback may run synchronously.
  void ForceTo(Viewstamp vs, std::function<void(bool)> done);

  // Backup acknowledgment / gap request. Acks from senders outside the
  // view's backup set, for the wrong group, or claiming a timestamp beyond
  // last_ts() are rejected (counted in stats().acks_rejected).
  void OnAck(const BufferAckMsg& ack);

  // Sub-majority ack watermark: the highest ts acked by at least a
  // sub-majority of backups (0 if none).
  std::uint64_t StableTs() const;

  // The resident (not yet garbage-collected) suffix of the current view's
  // records: records()[i].ts == base_ts() + i + 1. Records with
  // ts <= base_ts() were acked by every backup and have been released.
  const std::vector<EventRecord>& records() const { return records_; }
  std::uint64_t base_ts() const { return base_ts_; }

  // Highest cumulative ack received from `backup` (0 if none/unknown).
  std::uint64_t AckedTs(Mid backup) const;

  struct Stats {
    std::uint64_t adds = 0;
    std::uint64_t forces = 0;
    // Forces satisfied without waiting: the needed acks were already in
    // (§3.7's "prepare messages are usually processed entirely at the
    // primary" claim, measured in bench E2).
    std::uint64_t forces_immediate = 0;
    std::uint64_t forces_failed = 0;
    // Forces still pending when the buffer stopped (a view change or a
    // crash): dropped without their callbacks, so counted only here.
    std::uint64_t forces_abandoned = 0;
    std::uint64_t batches_sent = 0;
    // Record transmissions, including re-sends. The windowed-replication
    // invariant: records_sent - records_retransmitted record deliveries were
    // first transmissions — no record is sent twice to a backup except after
    // its retransmission deadline expired or it asked for a gap fill.
    std::uint64_t records_sent = 0;
    std::uint64_t records_retransmitted = 0;
    // Per-backup ack-deadline expiries (each triggers one go-back-N resend).
    std::uint64_t retransmit_timeouts = 0;
    // Explicit gap requests honored with an immediate range resend.
    std::uint64_t gap_requests = 0;
    // Flush attempts blocked because a backup's in-flight window was full.
    std::uint64_t window_stalls = 0;
    // Records released below the GC watermark (see CollectGarbage).
    std::uint64_t records_gced = 0;
    // Laggards routed through snapshot state transfer: transitions of a
    // backup into state-transfer mode because its next needed record was
    // already garbage-collected.
    std::uint64_t snapshots_served = 0;
    // Max resident record count (memory high-water mark of this view).
    std::uint64_t buffer_high_water = 0;
    // Acks discarded: wrong group, unknown sender, or ts beyond last_ts().
    std::uint64_t acks_rejected = 0;
    // Log-recovered rejoin acks honored: the backup's cursors were rewound
    // to its replayed ts and the tail restreamed (or snapshot-served).
    std::uint64_t rejoins = 0;
    // Duplicate rejoin acks dropped: their recovery epoch was already
    // serviced, so rewinding again would only thrash the stream.
    std::uint64_t rejoins_ignored = 0;
    // Acks accepted from backups of this view.
    std::uint64_t acks_received = 0;
    // Read-lease grants issued on the ack path (DESIGN.md §14).
    std::uint64_t leases_granted = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  struct PendingForce {
    std::uint64_t ts;
    std::function<void(bool)> done;
    host::Time deadline;
  };

  // Per-backup replication cursor.
  struct BackupState {
    std::uint64_t acked = 0;  // highest cumulative ack received
    std::uint64_t sent = 0;   // highest ts transmitted (the send cursor)
    // Upper end of the last gap-request resend; suppresses duplicate
    // resends for the same hole until the ack advances past it — or until
    // gap_deadline passes, in case the resend itself was lost.
    std::uint64_t gap_resent_hi = 0;
    host::Time gap_deadline = 0;
    // Ack deadline while records are in flight (0 = nothing outstanding).
    host::Time deadline = 0;
    // The backup's next needed record was garbage-collected: it is being
    // caught up via snapshot state transfer (on_needs_snapshot) and gets no
    // record sends, gap fills, or retransmissions until its ack re-enters
    // the resident range.
    bool state_transfer = false;
    // Highest rejoin epoch serviced for this backup (0 = none): duplicates
    // at or below it are retransmissions of an episode already handled.
    std::uint64_t rejoin_epoch = 0;
    // Next time an ack from this backup triggers a fresh read-lease grant
    // (lease half-life renewal; 0 = grant on the first ack).
    host::Time lease_renew_at = 0;
  };

  void ScheduleFlush(host::Duration delay);
  void FlushNow();
  void SendTo(Mid backup);
  void SendRange(Mid backup, std::uint64_t lo, std::uint64_t hi);
  // True if `backup` must catch up via state transfer (its next needed
  // record is below base_ts_); fires on_needs_snapshot on the transition.
  bool RouteThroughSnapshot(Mid backup, BackupState& st);
  void ResolveForces();
  void CheckForceTimeouts();
  void CheckRetransmits();
  void ArmRetransmitTimer();
  void CollectGarbage();

  host::Host& host_;
  CommBufferOptions options_;
  std::function<void(Mid, const BufferBatchMsg&)> send_;
  std::function<void()> on_force_failed_;
  std::function<void(Mid)> on_needs_snapshot_;
  std::function<void(Mid, std::uint64_t)> on_lease_;

  bool active_ = false;
  ViewId viewid_;
  GroupId group_ = 0;
  Mid self_ = 0;
  std::vector<Mid> backups_;
  std::size_t sub_majority_ = 0;
  History* history_ = nullptr;

  std::uint64_t next_ts_ = 1;
  std::uint64_t base_ts_ = 0;         // ts of the last GC'd record
  std::vector<EventRecord> records_;  // records_[i].ts == base_ts_ + i + 1
  std::map<Mid, BackupState> state_;
  std::vector<PendingForce> forces_;

  host::TimerId flush_timer_ = host::kNoTimer;
  host::TimerId retransmit_timer_ = host::kNoTimer;
  host::TimerId force_check_timer_ = host::kNoTimer;

  Stats stats_;
};

}  // namespace vsr::vr
