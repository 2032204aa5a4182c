// Write-behind durable event log over StableStore (DESIGN.md §10).
//
// VR-88's fast path never forces to stable storage (§4.2); the price is
// that losing a majority simultaneously is a catastrophe. This log restores
// a recovery story WITHOUT touching the fast path: appends are buffered in
// memory and group-committed as CRC-framed segments strictly BEHIND the
// acknowledgement that made them visible — nothing in the protocol ever
// waits for a log write. A crash therefore loses the in-memory batch plus
// any segment still in flight, and recovery must treat the replayed state
// as a *lower bound* on what the cohort had acknowledged (the cohort
// rejoins as crashed-with-state, never as normal; see view_formation.h
// condition 4).
//
// Layering: the log stores opaque (kind, payload) entries. The cohort layer
// defines the entry kinds (checkpoint / apply) and their payloads; this
// class knows only about framing, batching, generations and replay.
//
// On-disk layout (all integers little-endian, see DESIGN.md §10 for the
// byte-for-byte spec):
//   <prefix>/head            u64 generation
//   <prefix>/<gen>/<seq>     one segment, seq = 1, 2, ...:
//       repeat { u32 body_len | u32 crc32(body) | body } where
//       body = u8 kind | payload bytes
//
// A generation is one contiguous run of state anchored by its first entry
// (the cohort writes a checkpoint there). BeginGeneration bumps the head
// and resets seq; because every StableStore write shares force_latency,
// durable writes complete in issue order, so the durable image is always a
// prefix of what was issued: head before segment 1, segment n before n+1.
// Replay walks segments until one is missing or an entry fails its length
// or CRC check, and rejects everything from the first bad byte onwards —
// a torn tail can only under-represent what the cohort knew, never invent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/host.h"
#include "storage/stable_store.h"

namespace vsr::storage {

// Group commit: a pending batch is flushed once the oldest entry has waited
// this long, so the log trails the ack path by at most one interval plus the
// force latency.
inline constexpr host::Duration kFlushInterval = 5 * host::kMillisecond;
// Early-flush thresholds: entry count and pre-framing payload bytes.
inline constexpr std::size_t kMaxLogBatch = 256;
inline constexpr std::size_t kMaxLogBatchBytes = 64 * 1024;

struct EventLogOptions {
  // Off by default: the paper's configuration is volatile, and E9 must
  // reproduce its catastrophe numbers unless the log is asked for. When on
  // (E9, E12, perfbench sim-failover), applied records are group-committed
  // strictly behind the ack path and Recover() replays them.
  bool enabled = false;
};

class EventLog {
 public:
  struct Entry {
    std::uint8_t kind = 0;
    std::vector<std::uint8_t> payload;
  };

  // `prefix` namespaces this cohort's keys in the (shared) store; `owner`
  // tags ForceWrites so Crash() can drop exactly our in-flight segments.
  EventLog(host::Host& hst, StableStore& store,
           EventLogOptions options, std::string prefix, StableStore::Owner owner)
      : host_(hst),
        store_(store),
        options_(options),
        prefix_(std::move(prefix)),
        owner_(owner) {}
  ~EventLog() { host_.timers().Cancel(flush_timer_); }
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  bool enabled() const { return options_.enabled; }

  // Write-behind append: buffered in memory and group-committed later (or
  // immediately once a batch threshold trips). Appends before the first
  // BeginGeneration are dropped — there is no checkpoint to anchor them.
  void Append(std::uint8_t kind, std::vector<std::uint8_t> payload);

  // Flushes everything pending as one segment now. The write is still
  // asynchronous (durable after force_latency); nothing waits on it.
  void Flush();

  // Opens a new generation whose first entry is `anchor` (the cohort's
  // checkpoint). Discards any unflushed entries of the old generation —
  // the anchor supersedes them. Issues head then segment 1; FIFO completion
  // means replay never sees a generation without its anchor... unless the
  // crash tore it, in which case the generation replays empty (safe).
  // Once the new head is durable the superseded generation's segments are
  // erased: replay only ever reads the head generation, and stale segments
  // must not survive to alias a reused generation number (see Replay).
  void BeginGeneration(Entry anchor);

  // Crash hook: the in-memory batch is gone. The caller is responsible for
  // StableStore::DropPending(owner) — it owns other keys under the same
  // owner tag (viewid etc.).
  void Crash();

  // Reads back the durable image of the CURRENT head generation, stopping
  // at the first missing segment, truncated frame, or CRC mismatch — the
  // rest of the log is rejected wholesale. Also re-syncs the in-memory
  // generation counter to the durable head so a later BeginGeneration
  // cannot collide with surviving segments. A garbled head (torn write)
  // additionally erases every surviving segment: the generation counter
  // restarts from 0 in that case, and reused generation numbers must never
  // find valid-CRC segments from a previous life.
  std::vector<Entry> Replay();

  // Diskless recovery: wipes every durable key of this log.
  void Erase();

  struct Stats {
    std::uint64_t segments_written = 0;
    std::uint64_t bytes_logged = 0;
    std::uint64_t entries_rejected = 0;  // torn/corrupt suffix at replay
  };
  const Stats& stats() const { return stats_; }

  std::size_t pending_entries() const { return pending_.size(); }

 private:
  void ArmFlushTimer();
  std::string HeadKey() const { return prefix_ + "/head"; }
  std::string GenPrefix(std::uint64_t gen) const {
    return prefix_ + "/" + std::to_string(gen) + "/";
  }
  std::string SegKey(std::uint64_t gen, std::uint64_t seq) const {
    return GenPrefix(gen) + std::to_string(seq);
  }

  host::Host& host_;
  StableStore& store_;
  EventLogOptions options_;
  const std::string prefix_;
  const StableStore::Owner owner_;

  std::uint64_t gen_ = 0;  // 0 = no generation begun yet
  std::uint64_t next_seq_ = 1;
  std::vector<Entry> pending_;
  std::size_t pending_bytes_ = 0;
  host::TimerId flush_timer_ = host::kNoTimer;
  Stats stats_;
};

}  // namespace vsr::storage
