#include "storage/event_log.h"

#include <functional>
#include <utility>

#include "wire/buffer.h"

namespace vsr::storage {

void EventLog::Append(std::uint8_t kind, std::vector<std::uint8_t> payload) {
  if (!options_.enabled || gen_ == 0) return;
  pending_bytes_ += payload.size() + 1;
  pending_.push_back(Entry{kind, std::move(payload)});
  if (pending_.size() >= kMaxLogBatch || pending_bytes_ >= kMaxLogBatchBytes) {
    Flush();
    return;
  }
  ArmFlushTimer();
}

void EventLog::Flush() {
  if (pending_.empty()) return;
  host_.timers().Cancel(flush_timer_);
  flush_timer_ = host::kNoTimer;

  wire::Writer w;
  for (const Entry& e : pending_) {
    wire::Writer body;
    body.U8(e.kind);
    body.Raw(std::span<const std::uint8_t>(e.payload));
    w.U32(static_cast<std::uint32_t>(body.size()));
    w.U32(wire::Crc32(body.data()));
    w.Raw(std::span<const std::uint8_t>(body.data()));
  }
  pending_.clear();
  pending_bytes_ = 0;
  ++stats_.segments_written;
  stats_.bytes_logged += w.size();
  store_.ForceWrite(SegKey(gen_, next_seq_++), w.Take(), nullptr, owner_);
}

void EventLog::BeginGeneration(Entry anchor) {
  if (!options_.enabled) return;
  // Unflushed entries of the old generation are superseded by the anchor.
  pending_.clear();
  pending_bytes_ = 0;
  host_.timers().Cancel(flush_timer_);
  flush_timer_ = host::kNoTimer;

  const std::uint64_t old_gen = gen_;
  ++gen_;
  next_seq_ = 1;
  wire::Writer head;
  head.U64(gen_);
  // Once the new head pointer is durable, replay can never read the old
  // generation again, so its segments are dead weight — erase them. Must
  // wait for durability: a crash before the head lands replays the OLD
  // generation, which therefore has to stay intact until then. Erasing is
  // also a safety requirement, not just hygiene: a garbled head resets the
  // generation counter, and a reused generation number must never find
  // valid-CRC segments from a previous life (see Replay).
  std::function<void()> on_durable;
  if (old_gen != 0) {
    on_durable = [store = &store_, prefix = GenPrefix(old_gen)] {
      store->EraseByPrefix(prefix);
    };
  }
  store_.ForceWrite(HeadKey(), head.Take(), std::move(on_durable), owner_);
  pending_bytes_ = anchor.payload.size() + 1;
  pending_.push_back(std::move(anchor));
  Flush();
}

void EventLog::Crash() {
  pending_.clear();
  pending_bytes_ = 0;
  host_.timers().Cancel(flush_timer_);
  flush_timer_ = host::kNoTimer;
}

std::vector<EventLog::Entry> EventLog::Replay() {
  std::vector<Entry> out;
  if (!options_.enabled) return out;

  const auto head = store_.Read(HeadKey());
  if (!head.has_value()) {
    gen_ = 0;
    next_seq_ = 1;
    return out;
  }
  wire::Reader hr(*head);
  const std::uint64_t durable_gen = hr.U64();
  if (!hr.ok() || !hr.AtEnd() || durable_gen == 0) {
    // Torn head write: no trustworthy generation pointer, replay nothing —
    // and erase every surviving segment NOW. The generation counter restarts
    // at 0, so a later BeginGeneration reuses numbers; any stale segment
    // left behind would carry a valid CRC and could splice old-view records
    // (whose per-view timestamps restart at 1) after a fresh checkpoint on
    // the next crash, inventing state the recovery path would trust.
    ++stats_.entries_rejected;
    store_.EraseByPrefix(prefix_ + "/");
    gen_ = 0;
    next_seq_ = 1;
    return out;
  }
  gen_ = durable_gen;

  bool bad = false;
  std::uint64_t seq = 1;
  for (; !bad; ++seq) {
    const auto seg = store_.Read(SegKey(durable_gen, seq));
    if (!seg.has_value()) break;
    wire::Reader r(*seg);
    while (!r.AtEnd()) {
      // Frame header + body must be intact; anything short or mismatched is
      // a torn tail and invalidates the rest of the log wholesale.
      if (r.Remaining() < 8) {
        bad = true;
        break;
      }
      const std::uint32_t len = r.U32();
      const std::uint32_t crc = r.U32();
      if (r.Remaining() < len || len == 0) {
        bad = true;
        break;
      }
      const std::vector<std::uint8_t> body = r.Raw(len);
      if (wire::Crc32(body) != crc) {
        bad = true;
        break;
      }
      Entry e;
      e.kind = body[0];
      e.payload.assign(body.begin() + 1, body.end());
      out.push_back(std::move(e));
    }
  }
  if (bad) ++stats_.entries_rejected;
  // Future appends go to a fresh generation (the cohort re-checkpoints after
  // replay); still park next_seq_ past the durable image for safety.
  next_seq_ = seq;
  return out;
}

void EventLog::Erase() {
  store_.EraseByPrefix(prefix_ + "/");
  Crash();
  gen_ = 0;
  next_seq_ = 1;
}

void EventLog::ArmFlushTimer() {
  if (flush_timer_ != host::kNoTimer) return;
  flush_timer_ = host_.timers().After(kFlushInterval, [this] {
    flush_timer_ = host::kNoTimer;
    Flush();
  });
}

}  // namespace vsr::storage
