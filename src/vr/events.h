// Event records (§2): the units the primary streams to its backups through
// the communication buffer, in timestamp order.
//
// The correspondence the paper draws in §3.7: completed-call records are the
// data records a conventional system forces to stable storage before
// preparing; committing/committed/aborted/done records are their stable-
// storage counterparts; there is no prepare record (the history + pset
// replace it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "vr/history.h"
#include "vr/types.h"

namespace vsr::vr {

enum class LockMode : std::uint8_t {
  kRead = 0,
  kWrite = 1,
};

// One object touched by a completed call: which lock was taken and, for
// writes, the tentative version created (§3.2 "object-list").
struct ObjectEffect {
  std::string uid;
  LockMode mode = LockMode::kRead;
  std::optional<std::string> tentative;  // present iff mode == kWrite

  bool operator==(const ObjectEffect&) const = default;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.uid);
    ar.Enum(m.mode, LockMode::kWrite);
    ar(m.tentative);
  }
};

enum class EventType : std::uint8_t {
  kCompletedCall = 0,  // a remote call finished at this (server) group
  kCommitting = 1,     // coordinator decided commit; carries the plist
  kCommitted = 2,      // participant learned the transaction committed
  kAborted = 3,        // transaction aborted
  kDone = 4,           // coordinator: all participants acked the commit
  kAbortedSub = 5,     // a subaction (call attempt) was discarded (§3.6)
  kNewView = 6,        // first record of a view: view + history + gstate
  // Shard rebalancing (DESIGN.md §11): the bulk-copied image of a key range
  // pulled from another group, installed as committed base versions; and the
  // old owner's garbage-collection of a range whose move committed. Both
  // carry their payload in the gstate field (same wire layout as kNewView).
  kShardInstall = 7,
  kShardDrop = 8,
};

const char* EventTypeName(EventType t);

struct EventRecord {
  EventType type = EventType::kCompletedCall;
  // Timestamp assigned by CommBuffer::Add; 0 until then.
  std::uint64_t ts = 0;

  // kCompletedCall / kCommitting / kCommitted / kAborted / kDone / kAbortedSub
  SubAid sub_aid;
  // kCompletedCall: the objects read/written by the call.
  std::vector<ObjectEffect> effects;
  // kCompletedCall: the duplicate-suppression key, reply payload, and the
  // pset contributed by nested calls. Replicating these makes every cohort
  // able to re-answer a retransmitted call — the durable "connection
  // information" §3.1 assumes of the message delivery system.
  std::uint64_t call_seq = 0;
  std::vector<std::uint8_t> result;
  Pset nested_pset;
  // kCommitting: the non-read-only participants (phase-two recipients).
  std::vector<GroupId> plist;
  // kNewView payload.
  View view;
  History history;
  std::vector<std::uint8_t> gstate;

  static EventRecord CompletedCall(SubAid id, std::vector<ObjectEffect> fx,
                                   std::uint64_t call_seq = 0,
                                   std::vector<std::uint8_t> result = {},
                                   Pset nested_pset = {}) {
    EventRecord e;
    e.type = EventType::kCompletedCall;
    e.sub_aid = id;
    e.effects = std::move(fx);
    e.call_seq = call_seq;
    e.result = std::move(result);
    e.nested_pset = std::move(nested_pset);
    return e;
  }
  static EventRecord Committing(Aid aid, std::vector<GroupId> participants) {
    EventRecord e;
    e.type = EventType::kCommitting;
    e.sub_aid = SubAid{aid, 0};
    e.plist = std::move(participants);
    return e;
  }
  static EventRecord Committed(Aid aid) {
    EventRecord e;
    e.type = EventType::kCommitted;
    e.sub_aid = SubAid{aid, 0};
    return e;
  }
  static EventRecord Aborted(Aid aid) {
    EventRecord e;
    e.type = EventType::kAborted;
    e.sub_aid = SubAid{aid, 0};
    return e;
  }
  static EventRecord Done(Aid aid) {
    EventRecord e;
    e.type = EventType::kDone;
    e.sub_aid = SubAid{aid, 0};
    return e;
  }
  static EventRecord AbortedSub(SubAid id) {
    EventRecord e;
    e.type = EventType::kAbortedSub;
    e.sub_aid = id;
    return e;
  }
  bool operator==(const EventRecord&) const = default;

  static EventRecord NewView(View v, History h, std::vector<std::uint8_t> g) {
    EventRecord e;
    e.type = EventType::kNewView;
    e.view = std::move(v);
    e.history = std::move(h);
    e.gstate = std::move(g);
    return e;
  }
  // `payload` is the shard-image encoding (lo, hi, source group, range
  // bytes) built by the pulling primary; see Cohort::OnShardChunk.
  static EventRecord ShardInstall(std::vector<std::uint8_t> payload) {
    EventRecord e;
    e.type = EventType::kShardInstall;
    e.gstate = std::move(payload);
    return e;
  }
  // `payload` encodes just the dropped bounds (lo, hi).
  static EventRecord ShardDrop(std::vector<std::uint8_t> payload) {
    EventRecord e;
    e.type = EventType::kShardDrop;
    e.gstate = std::move(payload);
    return e;
  }

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar.Enum(m.type, EventType::kShardDrop);
    ar(m.ts, m.sub_aid, m.effects, m.call_seq, m.result, m.nested_pset,
       m.plist, m.view, m.history, m.gstate);
  }

  std::string ToString() const;
};

}  // namespace vsr::vr
