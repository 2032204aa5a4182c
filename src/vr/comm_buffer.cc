#include "vr/comm_buffer.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace vsr::vr {

CommBuffer::CommBuffer(host::Host& hst, CommBufferOptions options,
                       std::function<void(Mid, const BufferBatchMsg&)> send,
                       std::function<void()> on_force_failed,
                       std::function<void(Mid)> on_needs_snapshot,
                       std::function<void(Mid, std::uint64_t)> on_lease)
    : host_(hst),
      options_(options),
      send_(std::move(send)),
      on_force_failed_(std::move(on_force_failed)),
      on_needs_snapshot_(std::move(on_needs_snapshot)),
      on_lease_(std::move(on_lease)) {}

void CommBuffer::StartView(ViewId viewid, std::vector<Mid> backups,
                           std::size_t config_size, GroupId group, Mid self,
                           History* history) {
  Stop();
  active_ = true;
  viewid_ = viewid;
  group_ = group;
  self_ = self;
  backups_ = std::move(backups);
  sub_majority_ = SubMajorityOf(config_size);
  history_ = history;
  next_ts_ = 1;
  base_ts_ = 0;
  records_.clear();
  state_.clear();
  for (Mid b : backups_) state_[b] = BackupState{};
}

void CommBuffer::Stop() {
  active_ = false;
  host_.timers().Cancel(flush_timer_);
  host_.timers().Cancel(retransmit_timer_);
  host_.timers().Cancel(force_check_timer_);
  flush_timer_ = retransmit_timer_ = force_check_timer_ = host::kNoTimer;
  // Drop pending forces without invoking callbacks: the continuations belong
  // to coroutines the cohort is about to destroy anyway.
  stats_.forces_abandoned += forces_.size();
  forces_.clear();
  history_ = nullptr;
}

Viewstamp CommBuffer::Add(EventRecord record) {
  assert(active_);
  record.ts = next_ts_++;
  // "It atomically assigns the event a timestamp (advancing the timestamp
  //  and updating the history in the process)".
  history_->Advance(record.ts);
  records_.push_back(std::move(record));
  ++stats_.adds;
  stats_.buffer_high_water =
      std::max(stats_.buffer_high_water,
               static_cast<std::uint64_t>(records_.size()));
  ScheduleFlush(options_.flush_delay);
  return Viewstamp{viewid_, records_.back().ts};
}

void CommBuffer::ForceTo(Viewstamp vs, std::function<void(bool)> done) {
  ++stats_.forces;
  // "If the viewstamp is not for the current view it returns immediately."
  if (vs.view != viewid_) {
    ++stats_.forces_immediate;
    done(true);
    return;
  }
  // A stopped buffer never replicated these events: the caller must not
  // treat them as durable (the view change decides their fate).
  if (!active_) {
    ++stats_.forces_failed;
    done(false);
    return;
  }
  if (StableTs() >= vs.ts || sub_majority_ == 0) {
    ++stats_.forces_immediate;
    done(true);
    return;
  }
  forces_.push_back(PendingForce{vs.ts, std::move(done),
                                 host_.Now() + kForceTimeout});
  if (force_check_timer_ == host::kNoTimer) {
    force_check_timer_ = host_.timers().After(
        kForceTimeout, [this] { CheckForceTimeouts(); });
  }
  ScheduleFlush(0);
}

std::uint64_t CommBuffer::StableTs() const {
  if (backups_.empty() || sub_majority_ == 0) return next_ts_ - 1;
  std::vector<std::uint64_t> acks;
  acks.reserve(state_.size());
  for (const auto& [mid, st] : state_) acks.push_back(st.acked);
  std::sort(acks.begin(), acks.end(), std::greater<>());
  if (acks.size() < sub_majority_) return 0;
  return acks[sub_majority_ - 1];
}

std::uint64_t CommBuffer::AckedTs(Mid backup) const {
  auto it = state_.find(backup);
  return it == state_.end() ? 0 : it->second.acked;
}

void CommBuffer::OnAck(const BufferAckMsg& ack) {
  if (!active_ || ack.viewid != viewid_) return;
  if (ack.group != group_) {
    ++stats_.acks_rejected;
    return;
  }
  auto it = state_.find(ack.from);
  if (it == state_.end()) {
    // Not a backup of this view (misrouted, or a stray configuration).
    ++stats_.acks_rejected;
    return;
  }
  // A corrupted or misrouted ack must not advance the watermark past what
  // was ever added: that could satisfy a force no backup actually saw.
  if (ack.ts > last_ts()) {
    ++stats_.acks_rejected;
    return;
  }
  ++stats_.acks_received;
  BackupState& st = it->second;
  bool rejoin_serviced = false;
  if (ack.rejoin) {
    if (ack.rejoin_epoch != 0 && ack.rejoin_epoch <= st.rejoin_epoch) {
      // Rejoin acks are retransmitted until the first batch arrives, so a
      // delayed or reordered duplicate of an epoch already serviced can
      // land after the backup has progressed past its replayed ts. Rewinding
      // again would void real progress and restream the tail redundantly —
      // service each recovery episode exactly once.
      ++stats_.rejoins_ignored;
    } else {
      // A log-recovered backup resumed at its replayed ts; anything it acked
      // beyond that before the crash is gone from its memory. Rewind both
      // cursors (even backwards — pre-crash acks are void); the tail
      // restreams below, or a snapshot is served once the rewound ack sits
      // under the GC floor.
      ++stats_.rejoins;
      // max, not assignment: an epoch-0 (unspecified) rejoin is always
      // honored but must not lower the dedup floor for tagged episodes.
      st.rejoin_epoch = std::max(st.rejoin_epoch, ack.rejoin_epoch);
      st.acked = ack.ts;
      st.sent = ack.ts;
      st.state_transfer = false;
      st.deadline = 0;
      st.gap_resent_hi = 0;
      st.gap_deadline = 0;
      rejoin_serviced = true;
    }
  }
  const bool was_stalled = st.sent >= st.acked + options_.window;
  const bool progress = ack.ts > st.acked;
  if (progress) {
    st.acked = ack.ts;
    // An ack can overtake the cursor (e.g. the backup installed a snapshot
    // and rejoined far ahead of what was ever sent); never let the cursor
    // lag behind what is known received.
    if (st.sent < st.acked) st.sent = st.acked;
    if (st.acked >= st.gap_resent_hi) st.gap_resent_hi = 0;
  }
  if (st.state_transfer && st.acked >= base_ts_) {
    // The snapshot is installed: the backup's ack re-entered the resident
    // range and it resumes the normal record stream.
    st.state_transfer = false;
    st.deadline = 0;
    SendTo(ack.from);
  } else if (st.state_transfer && progress && on_needs_snapshot_) {
    // Installed, but GC outran the snapshot while it was in flight: the ack
    // moved yet still sits below the resident range. Serve a fresher one.
    on_needs_snapshot_(ack.from);
  }
  // Only progress resets the stall deadline: a duplicate ack must not
  // postpone a legitimate retransmission forever.
  if (st.state_transfer || st.acked >= st.sent) {
    st.deadline = 0;
  } else if (progress) {
    st.deadline = host_.Now() + kRetransmitInterval;
  }

  // Explicit gap request: the backup saw records beyond ack.ts + 1 and asks
  // precisely for the hole (ack.ts, gap_hi]. Resend it immediately — without
  // touching the cursor — instead of letting the deadline expire.
  if (ack.gap && !RouteThroughSnapshot(ack.from, st)) {
    // A repeated nack arriving after the previous gap resend's own deadline
    // means that resend was itself lost: lift the suppression so the hole
    // heals now instead of waiting out the full go-back-N deadline.
    if (st.gap_resent_hi != 0 && st.gap_deadline != 0 &&
        host_.Now() >= st.gap_deadline) {
      st.gap_resent_hi = 0;
    }
    const std::uint64_t lo = st.acked;
    const std::uint64_t hi = std::min(st.sent, ack.gap_hi);
    if (hi > lo && hi > st.gap_resent_hi) {
      ++stats_.gap_requests;
      stats_.records_retransmitted += hi - lo;
      st.gap_resent_hi = hi;
      st.gap_deadline = host_.Now() + kRetransmitInterval / 2;
      st.deadline = host_.Now() + kRetransmitInterval;
      SendRange(ack.from, lo, hi);
    }
  }

  // Pipelining: a backup that was window-stalled resumes the moment the ack
  // frees space (new records otherwise ride the next flush tick).
  if (was_stalled && st.sent < last_ts()) SendTo(ack.from);

  // A rejoining backup gets its tail immediately; SendTo routes it through
  // snapshot state transfer if the rewound ack fell below the GC floor.
  // (Ignored duplicate rejoins get nothing — their episode was serviced.)
  if (rejoin_serviced) SendTo(ack.from);

  // Read-lease renewal (DESIGN.md §14) rides the ack we just processed: no
  // dedicated timer, the grant is issued at most once per duration/8 per
  // backup — well inside the expiry for liveness, and frequent enough that
  // the granted stable watermark (which bounds what the backup may serve)
  // stays fresh under a write-heavy mix. A backup mid state transfer gets
  // no lease — its applied state is about to be replaced wholesale.
  if (options_.lease_duration > 0 && on_lease_ && !st.state_transfer &&
      host_.Now() >= st.lease_renew_at) {
    st.lease_renew_at = host_.Now() + options_.lease_duration / 8;
    ++stats_.leases_granted;
    on_lease_(ack.from, StableTs());
  }

  ArmRetransmitTimer();
  CollectGarbage();
  ResolveForces();
}

// Releases records every backup has acked — and, with snapshot catch-up
// enabled, records more than `window` below the sub-majority stable
// watermark even if a laggard has not: the laggard is then served a snapshot
// (RouteThroughSnapshot) instead of a record replay, so one dead backup
// bounds resident memory at O(window) rather than O(its lag). Safety is
// untouched: records_ is volatile replication plumbing; durable knowledge
// lives in the cohorts' gstates and the view-change newview record.
void CommBuffer::CollectGarbage() {
  if (state_.empty()) return;
  std::uint64_t watermark = last_ts();
  for (const auto& [mid, st] : state_) {
    watermark = std::min(watermark, st.acked);
  }
  if (options_.snapshot_catchup) {
    const std::uint64_t stable = StableTs();
    const std::uint64_t stable_floor =
        stable > options_.window ? stable - options_.window : 0;
    watermark = std::max(watermark, stable_floor);
  }
  if (watermark <= base_ts_) return;
  const std::size_t n = static_cast<std::size_t>(watermark - base_ts_);
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(n));
  base_ts_ = watermark;
  stats_.records_gced += n;
}

void CommBuffer::ResolveForces() {
  const std::uint64_t stable = StableTs();
  // Callbacks may add records / new forces; collect first, then run.
  std::vector<std::function<void(bool)>> ready;
  std::erase_if(forces_, [&](PendingForce& f) {
    if (f.ts <= stable) {
      ready.push_back(std::move(f.done));
      return true;
    }
    return false;
  });
  for (auto& cb : ready) cb(true);
}

void CommBuffer::CheckForceTimeouts() {
  force_check_timer_ = host::kNoTimer;
  if (!active_) return;
  const host::Time now = host_.Now();
  std::vector<std::function<void(bool)>> expired;
  host::Time next_deadline = 0;
  std::erase_if(forces_, [&](PendingForce& f) {
    if (f.deadline <= now) {
      expired.push_back(std::move(f.done));
      return true;
    }
    if (next_deadline == 0 || f.deadline < next_deadline) {
      next_deadline = f.deadline;
    }
    return false;
  });
  if (next_deadline != 0) {
    force_check_timer_ =
        host_.timers().At(next_deadline, [this] { CheckForceTimeouts(); });
  }
  if (!expired.empty()) {
    stats_.forces_failed += expired.size();
    for (auto& cb : expired) cb(false);
    // "If communication with some backups is impossible, the call of
    //  force-to will be abandoned, and the cohort will switch to running the
    //  view change algorithm."
    if (on_force_failed_) on_force_failed_();
  }
}

void CommBuffer::ScheduleFlush(host::Duration delay) {
  if (!active_) return;
  if (delay == 0) {
    host_.timers().Cancel(flush_timer_);
    flush_timer_ = host::kNoTimer;
    FlushNow();
    return;
  }
  if (flush_timer_ != host::kNoTimer) return;  // already scheduled
  flush_timer_ = host_.timers().After(delay, [this] {
    flush_timer_ = host::kNoTimer;
    FlushNow();
  });
}

void CommBuffer::FlushNow() {
  if (!active_) return;
  for (Mid b : backups_) SendTo(b);
  ArmRetransmitTimer();
}

// True when `backup` cannot be served from the resident records (its ack is
// below base_ts_, so its next needed record was GC'd): flips it into
// state-transfer mode and asks the owner to serve a snapshot. One callback
// per episode; chunk-level retransmission is the snapshot server's job.
bool CommBuffer::RouteThroughSnapshot(Mid backup, BackupState& st) {
  if (!options_.snapshot_catchup) return false;
  if (st.state_transfer) return true;
  if (st.acked >= base_ts_) return false;
  st.state_transfer = true;
  st.deadline = 0;
  st.gap_resent_hi = 0;
  st.gap_deadline = 0;
  ++stats_.snapshots_served;
  if (on_needs_snapshot_) on_needs_snapshot_(backup);
  return true;
}

// Advances `backup`'s send cursor: transmits every record past the cursor,
// in kMaxBatch chunks, up to the in-flight window. Never re-sends.
void CommBuffer::SendTo(Mid backup) {
  auto it = state_.find(backup);
  if (it == state_.end()) return;
  BackupState& st = it->second;
  if (RouteThroughSnapshot(backup, st)) return;
  const std::uint64_t last = last_ts();
  while (st.sent < last) {
    const std::uint64_t limit = st.acked + options_.window;
    if (st.sent >= limit) {
      ++stats_.window_stalls;
      return;
    }
    const std::uint64_t lo = st.sent;
    const std::uint64_t hi = std::min({last, limit, lo + kMaxBatch});
    st.sent = hi;
    if (st.deadline == 0) {
      st.deadline = host_.Now() + kRetransmitInterval;
    }
    SendRange(backup, lo, hi);
  }
}

// Transmits the records in (lo, hi], in kMaxBatch chunks. lo is always at or
// above the GC watermark: a cursor never points below its backup's own ack,
// and a backup whose ack fell below the watermark is in state-transfer mode
// (RouteThroughSnapshot) and never reaches here.
void CommBuffer::SendRange(Mid backup, std::uint64_t lo, std::uint64_t hi) {
  assert(lo >= base_ts_ && hi <= last_ts());
  while (lo < hi) {
    const std::uint64_t end = std::min(hi, lo + kMaxBatch);
    BufferBatchMsg batch;
    batch.group = group_;
    batch.viewid = viewid_;
    batch.from = self_;
    batch.events.assign(
        records_.begin() + static_cast<std::ptrdiff_t>(lo - base_ts_),
        records_.begin() + static_cast<std::ptrdiff_t>(end - base_ts_));
    ++stats_.batches_sent;
    stats_.records_sent += end - lo;
    send_(backup, batch);
    lo = end;
  }
}

void CommBuffer::ArmRetransmitTimer() {
  host::Time next = 0;
  for (const auto& [mid, st] : state_) {
    if (st.deadline != 0 && (next == 0 || st.deadline < next)) {
      next = st.deadline;
    }
  }
  host_.timers().Cancel(retransmit_timer_);
  retransmit_timer_ = host::kNoTimer;
  if (next == 0) return;
  retransmit_timer_ =
      host_.timers().At(next, [this] { CheckRetransmits(); });
}

void CommBuffer::CheckRetransmits() {
  retransmit_timer_ = host::kNoTimer;
  if (!active_) return;
  const host::Time now = host_.Now();
  for (auto& [backup, st] : state_) {
    if (st.state_transfer) continue;  // no record deadlines during transfer
    if (st.deadline == 0 || st.deadline > now) continue;
    if (st.sent <= st.acked) {
      st.deadline = 0;
      continue;
    }
    // Stalled: in-flight records outlived their ack deadline. Go-back-N for
    // this backup only; healthy backups are untouched.
    ++stats_.retransmit_timeouts;
    stats_.records_retransmitted += st.sent - st.acked;
    st.sent = st.acked;
    st.gap_resent_hi = 0;
    st.gap_deadline = 0;
    st.deadline = 0;
    SendTo(backup);
  }
  ArmRetransmitTimer();
}

}  // namespace vsr::vr
