// Durable event log integration and crashed-cohort recovery (DESIGN.md §10).
//
// The log is strictly write-behind: LogApply buffers a copy of each record
// the moment it is applied (backup) or added (primary) and the EventLog
// group-commits it later — no protocol step ever waits on a log write. The
// durable image is therefore a LOWER BOUND on what this cohort had
// acknowledged before the crash, which is exactly why RecoverFromLog rejoins
// as crashed-with-state (view_formation.h condition 4) and never as normal.
#include "core/cohort.h"

namespace vsr::core {

namespace {

// Entry kinds within a log generation. The checkpoint is always the
// generation's anchor (first entry); applies follow in timestamp order.
constexpr std::uint8_t kLogCheckpoint = 1;
constexpr std::uint8_t kLogApply = 2;

}  // namespace

// Opens a fresh log generation anchored by a checkpoint of the full cohort
// state at applied ts `ts`. Callers at view transitions issue this BEFORE
// forcing the new viewid: StableStore writes complete in issue order, so a
// durable viewid implies a durable checkpoint for the view it names.
void Cohort::LogCheckpoint(std::uint64_t ts) {
  if (!elog_.enabled()) return;
  wire::Writer w;
  w(cur_viewid_, ts, cur_view_);
  WriteImage(w);
  elog_.BeginGeneration({kLogCheckpoint, w.Take()});
}

// Write-behind append of one record. Self-guarding: a replayed record must
// not be re-appended (the checkpoint + surviving suffix already cover it).
void Cohort::LogApply(const vr::EventRecord& rec) {
  if (!elog_.enabled() || log_replay_active_) return;
  elog_.Append(kLogApply, wire::Encode(rec));
}

// Replays the durable log image: restores the last checkpoint found, then
// re-applies the contiguous suffix of apply entries behind it. Returns false
// when nothing trustworthy survived (no/garbled checkpoint, or the replayed
// view does not include us) — the caller recovers amnesiac as before.
bool Cohort::RecoverFromLog() {
  const std::vector<storage::EventLog::Entry> entries = elog_.Replay();

  // The checkpoint anchors the generation, but InstallSnapshot and replay
  // itself may have opened later generations; only entries of the head
  // generation survive, so the LAST checkpoint wins and everything before
  // it is superseded.
  std::size_t ckpt = entries.size();
  for (std::size_t i = entries.size(); i-- > 0;) {
    if (entries[i].kind == kLogCheckpoint) {
      ckpt = i;
      break;
    }
  }
  if (ckpt == entries.size()) return false;

  wire::Reader r(entries[ckpt].payload);
  ViewId vid;
  std::uint64_t ts = 0;
  View view;
  r(vid, ts, view);
  std::optional<StateImage> image = ReadImage(r);
  if (!image || !view.Contains(self_)) {
    return false;  // garbled checkpoint: trust nothing
  }
  cur_viewid_ = vid;
  cur_view_ = std::move(view);
  InstallState(std::move(image->history), image->gstate,
               std::move(image->prepared), ts);

  // Re-apply the logged suffix in timestamp order. A gap means the segment
  // carrying the missing record never became durable; FIFO completion makes
  // everything after it equally untrustworthy, so stop there.
  log_replay_active_ = true;
  for (std::size_t i = ckpt + 1; i < entries.size(); ++i) {
    if (entries[i].kind != kLogApply) continue;
    wire::Reader er(entries[i].payload);
    const auto rec = er.Read<vr::EventRecord>();
    if (!er.ok() || !er.AtEnd()) break;
    if (rec.ts <= applied_ts_) continue;  // duplicate (pre-checkpoint flush)
    if (rec.ts != applied_ts_ + 1) break;
    ApplyNext(rec);
    ++stats_.log_records_replayed;
  }
  log_replay_active_ = false;
  return true;
}

// Tells the replayed view's primary where we are so it rewinds its cursors
// for us and restreams the missing tail (or serves a snapshot when the tail
// fell below its GC floor). Re-armed until the first batch arrives — the ack
// itself may be lost.
void Cohort::SendRejoinAck() {
  if (!rejoin_pending_ || status_ != Status::kActive ||
      cur_view_.primary == self_) {
    ClearRejoin();
    return;
  }
  vr::BufferAckMsg ack;
  ack.group = group_;
  ack.viewid = cur_viewid_;
  ack.from = self_;
  ack.ts = applied_ts_;
  ack.rejoin_epoch = rejoin_epoch_;
  SendMsg(cur_view_.primary, ack);
  ++stats_.rejoin_acks_sent;
  host_.timers().Cancel(rejoin_timer_);
  rejoin_timer_ = host_.timers().After(vr::kRetransmitInterval, [this] {
    rejoin_timer_ = host::kNoTimer;
    SendRejoinAck();
  });
}

void Cohort::ClearRejoin() {
  rejoin_pending_ = false;
  host_.timers().Cancel(rejoin_timer_);
  rejoin_timer_ = host::kNoTimer;
}

}  // namespace vsr::core
