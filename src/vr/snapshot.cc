#include "vr/snapshot.h"

#include <algorithm>
#include <cassert>

#include "vr/comm_buffer.h"
#include "wire/buffer.h"

namespace vsr::vr {

// ---------------------------------------------------------------------------
// SnapshotServer (primary side)
// ---------------------------------------------------------------------------

SnapshotServer::SnapshotServer(
    host::Host& hst, SnapshotTransferOptions options,
    std::function<void(Mid, const SnapshotChunkMsg&)> send)
    : host_(hst), options_(options), send_(std::move(send)) {}

void SnapshotServer::StartView(ViewId viewid, GroupId group, Mid self) {
  Stop();
  active_ = true;
  viewid_ = viewid;
  group_ = group;
  self_ = self;
}

void SnapshotServer::Stop() {
  active_ = false;
  transfers_.clear();
  host_.timers().Cancel(retransmit_timer_);
  retransmit_timer_ = host::kNoTimer;
}

void SnapshotServer::Serve(
    Mid backup, Viewstamp vs,
    std::shared_ptr<const std::vector<std::uint8_t>> payload) {
  if (!active_) return;
  assert(payload && !payload->empty());
  auto it = transfers_.find(backup);
  if (it != transfers_.end() && it->second.vs >= vs) {
    return;  // already serving this snapshot (or a newer one): keep progress
  }
  Transfer& t = transfers_[backup];
  t = Transfer{};
  t.vs = vs;
  t.payload = std::move(payload);
  t.checksum = wire::Crc32(std::span<const std::uint8_t>(*t.payload));
  ++stats_.transfers_started;
  Pump(backup, t);
  ArmTimer();
}

// Advances `backup`'s chunk cursor up to the in-flight window, mirroring
// CommBuffer::SendTo at byte granularity.
void SnapshotServer::Pump(Mid backup, Transfer& t) {
  const std::uint64_t total = t.payload->size();
  const std::uint64_t limit = std::min(
      total, t.acked + options_.window * options_.chunk_size);
  while (t.sent < limit) {
    const std::uint64_t lo = t.sent;
    const std::uint64_t hi = std::min(limit, lo + options_.chunk_size);
    SnapshotChunkMsg m;
    m.group = group_;
    m.viewid = viewid_;
    m.from = self_;
    m.vs = t.vs;
    m.total_size = total;
    m.checksum = t.checksum;
    m.offset = lo;
    m.data.assign(t.payload->begin() + static_cast<std::ptrdiff_t>(lo),
                  t.payload->begin() + static_cast<std::ptrdiff_t>(hi));
    t.sent = hi;
    ++stats_.chunks_sent;
    stats_.bytes_sent += hi - lo;
    send_(backup, m);
  }
  t.deadline = t.sent > t.acked ? host_.Now() + kRetransmitInterval : 0;
}

void SnapshotServer::OnAck(const SnapshotAckMsg& ack) {
  if (!active_ || ack.viewid != viewid_ || ack.group != group_) {
    ++stats_.acks_rejected;
    return;
  }
  auto it = transfers_.find(ack.from);
  if (it == transfers_.end()) return;  // transfer already completed/replaced
  Transfer& t = it->second;
  if (ack.vs != t.vs || ack.offset > t.payload->size()) {
    ++stats_.acks_rejected;
    return;
  }
  if (ack.offset >= t.payload->size()) {
    // Whole payload verified by the backup; its BufferAck re-enters the
    // record stream and CommBuffer clears state-transfer mode.
    ++stats_.transfers_completed;
    transfers_.erase(it);
    ArmTimer();
    return;
  }
  if (ack.offset > t.acked) {
    t.acked = ack.offset;
    if (t.sent < t.acked) t.sent = t.acked;
    t.deadline = host_.Now() + kRetransmitInterval;
    Pump(ack.from, t);
  } else if (ack.offset == 0 && t.acked > 0) {
    // The sink restarted from scratch (checksum reject): rewind.
    t.acked = 0;
    t.sent = 0;
    Pump(ack.from, t);
  }
  ArmTimer();
}

void SnapshotServer::ArmTimer() {
  host::Time next = 0;
  for (const auto& [mid, t] : transfers_) {
    if (t.deadline != 0 && (next == 0 || t.deadline < next)) {
      next = t.deadline;
    }
  }
  host_.timers().Cancel(retransmit_timer_);
  retransmit_timer_ = host::kNoTimer;
  if (next == 0) return;
  retransmit_timer_ =
      host_.timers().At(next, [this] { CheckDeadlines(); });
}

void SnapshotServer::CheckDeadlines() {
  retransmit_timer_ = host::kNoTimer;
  if (!active_) return;
  const host::Time now = host_.Now();
  for (auto& [backup, t] : transfers_) {
    if (t.deadline == 0 || t.deadline > now) continue;
    // Unacked chunks outlived their deadline: go-back-N from the ack.
    stats_.chunk_retransmits +=
        (t.sent - t.acked + options_.chunk_size - 1) / options_.chunk_size;
    t.sent = t.acked;
    Pump(backup, t);
  }
  ArmTimer();
}

// ---------------------------------------------------------------------------
// SnapshotSink (backup side)
// ---------------------------------------------------------------------------

void SnapshotSink::Reset() {
  active_ = false;
  complete_ = false;
  vs_ = Viewstamp{};
  total_ = 0;
  checksum_ = 0;
  buf_.clear();
}

bool SnapshotSink::OnChunk(const SnapshotChunkMsg& m) {
  if (active_ && m.vs < vs_) return false;  // stray chunk of an older snapshot
  if (!active_ || m.vs > vs_) {
    // First chunk seen, or the primary moved on to a fresher snapshot
    // mid-transfer: adopt it (partial bytes of the old one are useless).
    Reset();
    active_ = true;
    vs_ = m.vs;
    total_ = m.total_size;
    checksum_ = m.checksum;
  }
  if (m.total_size != total_ || m.checksum != checksum_) {
    return false;  // inconsistent with the transfer's own framing: forged
  }
  if (complete_) return true;  // duplicate tail chunk: re-ack completion
  if (m.offset != buf_.size()) {
    // Out of order. Ack the current contiguous offset anyway so the sender
    // realigns (a lost-chunk hole rewinds it; a duplicate is idempotent).
    return true;
  }
  buf_.insert(buf_.end(), m.data.begin(), m.data.end());
  if (buf_.size() < total_) return true;
  if (wire::Crc32(std::span<const std::uint8_t>(buf_)) != checksum_) {
    // Assembled payload fails verification: discard every byte and restart
    // the transfer (install is all-or-nothing). The offset-0 ack rewinds
    // the server.
    ++corrupt_payloads_;
    const Viewstamp vs = vs_;
    const std::uint64_t total = total_;
    const std::uint32_t checksum = checksum_;
    Reset();
    active_ = true;
    vs_ = vs;
    total_ = total;
    checksum_ = checksum;
    return true;
  }
  complete_ = true;
  return true;
}

}  // namespace vsr::vr
