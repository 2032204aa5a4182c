// The wire protocol: every message exchanged by cohorts and clients.
//
// Message ↔ paper mapping:
//   Ping          "I'm alive" messages (§4)
//   Invite        the view manager's invitation (§4, Fig. 5)
//   Accept        normal / "crashed" acceptances (§4)
//   InitView      manager → new primary when the manager is not it (§4)
//   BufferBatch   event records streamed from the communication buffer (§2);
//                 also carries the newview record that initializes underlings
//   BufferAck     backup acknowledgment driving force_to (§3), optionally
//                 carrying a gap request (nack) for a replication hole
//   Call/Reply    remote procedure call to a server group's primary (Fig. 2/3)
//   Prepare/...   two-phase commit (Fig. 2/3)
//   AbortSub      discard one subaction — a retried call attempt (§3.6)
//   Query/...     outcome queries (§3.4), and the settle request of a
//                 one-round commit (DESIGN.md §13.6)
//   Probe/...     locating the current primary + viewid of a group (§3,
//                 cache initialization), or a view newer than a silent
//                 call's (DESIGN.md §16)
//   BeginTxn/...  the coordinator-server protocol for unreplicated
//                 clients (§3.5)
//
// Each message lists its wire layout once, as a Fields walk (wire/buffer.h
// maps field types to bytes); EncodeMsg and Decode just run that walk. Which
// struct a frame's tag names is written once too, in the message list
// (VSR_MESSAGES): every frame handler decodes through VisitFrame, built
// from that list on DecodeFrame, which accepts only a clean parse that uses
// every byte.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "vr/events.h"
#include "vr/history.h"
#include "vr/types.h"
#include "wire/buffer.h"

namespace vsr::vr {

// The message list, the one table of the wire protocol's frames: each row
// names a message (its struct is Name##Msg, its MsgType enumerator k##Name),
// its wire tag and its printable name, in tag order. MsgType, kLastMsgType,
// MsgTypeName and VisitFrame are built from it; a new message is one more
// row here plus its struct below.
#define VSR_MESSAGES(X)                       \
  X(Ping, 1, "ping")                          \
  X(Invite, 2, "invite")                      \
  X(Accept, 3, "accept")                      \
  X(InitView, 4, "init-view")                 \
  X(BufferBatch, 5, "buffer-batch")           \
  X(BufferAck, 6, "buffer-ack")               \
  X(SnapshotChunk, 7, "snapshot-chunk")       \
  X(SnapshotAck, 8, "snapshot-ack")           \
  X(Call, 10, "call")                         \
  X(Reply, 11, "reply")                       \
  X(Prepare, 12, "prepare")                   \
  X(PrepareReply, 13, "prepare-reply")        \
  X(Commit, 14, "commit")                     \
  X(CommitDone, 15, "commit-done")            \
  X(Abort, 16, "abort")                       \
  X(AbortSub, 17, "abort-sub")                \
  X(Query, 18, "query")                       \
  X(QueryReply, 19, "query-reply")            \
  X(Probe, 20, "probe")                       \
  X(ProbeReply, 21, "probe-reply")            \
  X(BeginTxn, 22, "begin-txn")                \
  X(BeginTxnReply, 23, "begin-txn-reply")     \
  X(CommitReq, 24, "commit-req")              \
  X(CommitReqReply, 25, "commit-req-reply")   \
  X(AbortReq, 26, "abort-req")                \
  X(ShardPull, 27, "shard-pull")              \
  X(LeaseGrant, 28, "lease-grant")            \
  X(BackupRead, 29, "backup-read")            \
  X(BackupReadReply, 30, "backup-read-reply")

enum class MsgType : std::uint16_t {
#define VSR_ENUMERATOR(Name, tag, name) k##Name = tag,
  VSR_MESSAGES(VSR_ENUMERATOR)
#undef VSR_ENUMERATOR
};

// The tags in use, in list order.
inline constexpr std::uint16_t kMsgTags[] = {
#define VSR_TAG(Name, tag, name) tag,
    VSR_MESSAGES(VSR_TAG)
#undef VSR_TAG
};
static_assert(
    [] {
      for (std::size_t i = 1; i < std::size(kMsgTags); ++i) {
        if (kMsgTags[i - 1] >= kMsgTags[i]) return false;
      }
      return true;
    }(),
    "message tags must be unique and listed in ascending order");
// The highest tag in use.
inline constexpr MsgType kLastMsgType{std::end(kMsgTags)[-1]};

// The message's name, or "?" for a tag no message has.
constexpr const char* MsgTypeName(MsgType t) {
  switch (t) {
#define VSR_NAME(Name, tag, name) \
  case MsgType::k##Name:          \
    return name;
    VSR_MESSAGES(VSR_NAME)
#undef VSR_NAME
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Failure detection & view change
// ---------------------------------------------------------------------------

struct PingMsg {
  static constexpr MsgType kType = MsgType::kPing;
  GroupId group = 0;
  Mid from = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.from);
  }
  static PingMsg Decode(wire::Reader& r) { return r.Read<PingMsg>(); }
};

struct InviteMsg {
  static constexpr MsgType kType = MsgType::kInvite;
  GroupId group = 0;
  ViewId new_viewid;
  Mid from = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.new_viewid, m.from);
  }
  static InviteMsg Decode(wire::Reader& r) { return r.Read<InviteMsg>(); }
};

struct AcceptMsg {
  static constexpr MsgType kType = MsgType::kAccept;
  GroupId group = 0;
  // The viewid of the invitation being accepted.
  ViewId invite_viewid;
  Mid from = 0;
  // True for a "crash-accept" (§4): the cohort recovered from a crash and
  // its gstate is gone; it reports only the viewid it remembers from stable
  // storage.
  bool crashed = false;
  // Normal acceptance: the cohort's current viewstamp and whether it is the
  // primary of that viewstamp's view.
  Viewstamp last_vs;
  bool was_primary = false;
  // Crash acceptance refinement (DESIGN.md §10): the cohort replayed a
  // durable event log and last_vs/was_primary describe the replayed state;
  // crash_viewid stays the stable-storage viewid ceiling.
  bool recovered = false;
  // Crash acceptance: cur_viewid recovered from stable storage.
  ViewId crash_viewid;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    // `recovered` came last to the wire, after crash_viewid.
    ar(m.group, m.invite_viewid, m.from, m.crashed, m.last_vs, m.was_primary,
       m.crash_viewid, m.recovered);
  }
  static AcceptMsg Decode(wire::Reader& r) { return r.Read<AcceptMsg>(); }
  // Only a crash acceptance can be log-recovered.
  bool Valid() const { return crashed || !recovered; }
};

struct InitViewMsg {
  static constexpr MsgType kType = MsgType::kInitView;
  GroupId group = 0;
  ViewId viewid;
  View view;
  Mid from = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.view, m.from);
  }
  static InitViewMsg Decode(wire::Reader& r) { return r.Read<InitViewMsg>(); }
};

// ---------------------------------------------------------------------------
// Communication buffer replication
// ---------------------------------------------------------------------------

struct BufferBatchMsg {
  static constexpr MsgType kType = MsgType::kBufferBatch;
  GroupId group = 0;
  ViewId viewid;
  Mid from = 0;
  // Contiguous run of event records, in timestamp order.
  std::vector<EventRecord> events;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.from, m.events);
  }
  static BufferBatchMsg Decode(wire::Reader& r) {
    return r.Read<BufferBatchMsg>();
  }
};

struct BufferAckMsg {
  static constexpr MsgType kType = MsgType::kBufferAck;
  GroupId group = 0;
  ViewId viewid;
  Mid from = 0;
  // Highest contiguously applied timestamp in `viewid`.
  std::uint64_t ts = 0;
  // Gap request (nack): the backup holds records beyond ts + 1 and asks the
  // primary to resend exactly (ts, gap_hi] instead of waiting out the
  // primary's retransmission deadline.
  bool gap = false;
  std::uint64_t gap_hi = 0;
  // Log-recovered rejoin (DESIGN.md §10), when nonzero: the backup replayed
  // its durable log up to `ts` and rejoined the view; the primary must
  // rewind this backup's cursors to ts (pre-crash acks beyond it are void —
  // the backup lost them) and restream or snapshot the tail. The value
  // names the recovery episode (monotonically increasing per backup, at
  // least 1). Rejoin acks are retransmitted until the first batch arrives,
  // so the primary services each episode exactly once: a delayed or
  // reordered duplicate of an already-serviced epoch must not rewind
  // cursors the backup has since advanced past (it would trigger a
  // redundant restream).
  std::uint64_t rejoin_epoch = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.from, m.ts, m.gap, m.gap_hi, m.rejoin_epoch);
  }
  static BufferAckMsg Decode(wire::Reader& r) { return r.Read<BufferAckMsg>(); }
  // A gap request names a non-empty hole above the acked prefix.
  bool Valid() const { return !gap || gap_hi > ts; }
};

// ---------------------------------------------------------------------------
// Snapshot state transfer (DESIGN.md §9)
// ---------------------------------------------------------------------------

// A serialized state image, primary → laggard backup (or shard puller). The
// image is identified by `vs` (the viewstamp of the last event it covers;
// vs.view is the view its sender leads) and travels whole in `data`, with
// `checksum` its CRC (vr::WholeImage).
struct SnapshotChunkMsg {
  static constexpr MsgType kType = MsgType::kSnapshotChunk;
  GroupId group = 0;
  Mid from = 0;
  Viewstamp vs;                // snapshot identity: covers events <= vs.ts
  std::uint32_t checksum = 0;  // CRC-32 of `data`
  std::vector<std::uint8_t> data;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.from, m.vs, m.checksum, m.data);
  }
  static SnapshotChunkMsg Decode(wire::Reader& r) {
    return r.Read<SnapshotChunkMsg>();
  }
  // An empty image does not exist (gstate is never zero bytes).
  bool Valid() const { return !data.empty(); }
};

// Receiver → serving primary: the image identified by `vs` is installed
// (vr::InstallAck).
struct SnapshotAckMsg {
  static constexpr MsgType kType = MsgType::kSnapshotAck;
  GroupId group = 0;
  Mid from = 0;
  Viewstamp vs;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.from, m.vs);
  }
  static SnapshotAckMsg Decode(wire::Reader& r) {
    return r.Read<SnapshotAckMsg>();
  }
};

// ---------------------------------------------------------------------------
// Remote calls
// ---------------------------------------------------------------------------

enum class TxnOutcome : std::uint8_t {
  kUnknown = 0,
  kActive = 1,
  kCommitted = 2,
  kAborted = 3,
};

struct CallMsg {
  static constexpr MsgType kType = MsgType::kCall;
  GroupId group = 0;  // destination group
  ViewId viewid;      // client's cached viewid for the group (Fig. 2 step 1)
  // Correlation id for the reply (unique per sender).
  std::uint64_t call_id = 0;
  // Duplicate-suppression key, unique per (sub_aid, call_seq) — the
  // "connection information" §3.1 assumes of the message delivery system.
  // High 32 bits are the caller's mid so client- and server-originated
  // (nested) calls of one subaction never collide.
  std::uint64_t call_seq = 0;
  Mid reply_to = 0;
  SubAid sub_aid;
  // Subactions of this transaction the caller knows to be aborted (§3.6).
  // Their abort-sub messages are best-effort, so the retry carries the list:
  // the server discards their tentative versions before running this call,
  // otherwise the new attempt could read the dead attempt's writes.
  std::vector<std::uint32_t> dead_subs;
  std::string proc;
  std::vector<std::uint8_t> args;
  // One-round commit (DESIGN.md §13.6): the transaction's last call, to the
  // only group it has called. `pset` holds the transaction's earlier entries
  // (all for this group); the group checks them and decides the outcome.
  bool final_call = false;
  Pset pset;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.call_id, m.call_seq, m.reply_to, m.sub_aid,
       m.dead_subs, m.proc, m.args, m.final_call, m.pset);
  }
  static CallMsg Decode(wire::Reader& r) { return r.Read<CallMsg>(); }
};

enum class ReplyStatus : std::uint8_t {
  kOk = 0,
  // The call's viewid is stale; new view info attached when known (Fig. 3
  // step 1, "rejection message containing the new viewid and view").
  kWrongView = 1,
  // The procedure raised an application error or could not acquire locks;
  // the transaction must abort.
  kFailed = 2,
};

struct ReplyMsg {
  static constexpr MsgType kType = MsgType::kReply;
  std::uint64_t call_id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  std::vector<std::uint8_t> result;
  Pset pset;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;
  // A final call's decision, forced at the group before this reply left:
  // kCommitted or kAborted. kUnknown for every other reply (undecided).
  TxnOutcome outcome = TxnOutcome::kUnknown;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.call_id);
    ar.Enum(m.status, ReplyStatus::kFailed);
    ar(m.result, m.pset, m.view_known, m.new_viewid, m.new_view);
    ar.Enum(m.outcome, TxnOutcome::kAborted);
  }
  static ReplyMsg Decode(wire::Reader& r) { return r.Read<ReplyMsg>(); }
};

// ---------------------------------------------------------------------------
// Two-phase commit
// ---------------------------------------------------------------------------

struct PrepareMsg {
  static constexpr MsgType kType = MsgType::kPrepare;
  GroupId group = 0;  // destination (participant) group
  Aid aid;
  Pset pset;
  Mid reply_to = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.aid, m.pset, m.reply_to);
  }
  static PrepareMsg Decode(wire::Reader& r) { return r.Read<PrepareMsg>(); }
};

enum class PrepareStatus : std::uint8_t {
  kPrepared = 0,
  // The participant refuses: some of the transaction's events did not
  // survive a view change (compatible() failed) or the force failed.
  kRefused = 1,
  // The receiving cohort is not an active primary; current view info is
  // attached when known so the coordinator can retry at the right cohort
  // (§3.3: rejections carry "information about the current viewid and
  // primary if the cohort knows them").
  kWrongPrimary = 2,
};

struct PrepareReplyMsg {
  static constexpr MsgType kType = MsgType::kPrepareReply;
  Aid aid;
  GroupId from_group = 0;
  PrepareStatus status = PrepareStatus::kRefused;
  // True iff the transaction held only read locks at this participant; such
  // participants are excluded from phase two (Fig. 2 step 2).
  bool read_only = false;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.aid, m.from_group);
    ar.Enum(m.status, PrepareStatus::kWrongPrimary);
    ar(m.read_only, m.view_known, m.new_viewid, m.new_view);
  }
  static PrepareReplyMsg Decode(wire::Reader& r) {
    return r.Read<PrepareReplyMsg>();
  }
};

struct CommitMsg {
  static constexpr MsgType kType = MsgType::kCommit;
  GroupId group = 0;
  Aid aid;
  Mid reply_to = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.aid, m.reply_to);
  }
  static CommitMsg Decode(wire::Reader& r) { return r.Read<CommitMsg>(); }
};

struct CommitDoneMsg {
  static constexpr MsgType kType = MsgType::kCommitDone;
  Aid aid;
  GroupId from_group = 0;
  // Redirect: the receiver was not an active primary (see PrepareStatus).
  bool wrong_primary = false;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.aid, m.from_group, m.wrong_primary, m.view_known, m.new_viewid,
       m.new_view);
  }
  static CommitDoneMsg Decode(wire::Reader& r) {
    return r.Read<CommitDoneMsg>();
  }
};

struct AbortMsg {
  static constexpr MsgType kType = MsgType::kAbort;
  GroupId group = 0;
  Aid aid;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.aid);
  }
  static AbortMsg Decode(wire::Reader& r) { return r.Read<AbortMsg>(); }
};

struct AbortSubMsg {
  static constexpr MsgType kType = MsgType::kAbortSub;
  GroupId group = 0;
  SubAid sub_aid;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.sub_aid);
  }
  static AbortSubMsg Decode(wire::Reader& r) { return r.Read<AbortSubMsg>(); }
};

// ---------------------------------------------------------------------------
// Outcome queries (§3.4)
// ---------------------------------------------------------------------------

struct QueryMsg {
  static constexpr MsgType kType = MsgType::kQuery;
  Aid aid;
  Mid reply_to = 0;
  // The settle request (DESIGN.md §13.6): a coordinator that lost a final
  // call's reply asks the participant group's primary to decide. Only an
  // active primary settles: committed if its outcome table says so,
  // otherwise aborted, answered after its buffer tail is forced. Any other
  // cohort redirects, as for a plain query.
  bool settle = false;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.aid, m.reply_to, m.settle);
  }
  static QueryMsg Decode(wire::Reader& r) { return r.Read<QueryMsg>(); }
};

struct QueryReplyMsg {
  static constexpr MsgType kType = MsgType::kQueryReply;
  Aid aid;
  // The answering group: one aid may be asked of several groups (§3.6).
  GroupId from_group = 0;
  TxnOutcome outcome = TxnOutcome::kUnknown;
  // Redirect: the receiver was not the active primary, the only cohort
  // that answers a query (DESIGN.md §13.7).
  bool wrong_primary = false;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.aid, m.from_group);
    ar.Enum(m.outcome, TxnOutcome::kAborted);
    ar(m.wrong_primary, m.view_known, m.new_viewid, m.new_view);
  }
  static QueryReplyMsg Decode(wire::Reader& r) {
    return r.Read<QueryReplyMsg>();
  }
};

// ---------------------------------------------------------------------------
// Primary location probes
// ---------------------------------------------------------------------------

// Answered only by a cohort active in a view newer than `newer_than`; any
// other cohort parks the probe until it next becomes active (DESIGN.md
// §16.1). The zero floor asks for any active view.
struct ProbeMsg {
  static constexpr MsgType kType = MsgType::kProbe;
  GroupId group = 0;
  std::uint64_t req_id = 0;
  Mid reply_to = 0;
  ViewId newer_than;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.req_id, m.reply_to, m.newer_than);
  }
  static ProbeMsg Decode(wire::Reader& r) { return r.Read<ProbeMsg>(); }
};

struct ProbeReplyMsg {
  static constexpr MsgType kType = MsgType::kProbeReply;
  GroupId group = 0;
  std::uint64_t req_id = 0;
  // The replier's view, active at the replier when it answered.
  ViewId viewid;
  View view;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.req_id, m.viewid, m.view);
  }
  static ProbeReplyMsg Decode(wire::Reader& r) {
    return r.Read<ProbeReplyMsg>();
  }
};

// ---------------------------------------------------------------------------
// Coordinator-server protocol for unreplicated clients (§3.5)
// ---------------------------------------------------------------------------

struct BeginTxnMsg {
  static constexpr MsgType kType = MsgType::kBeginTxn;
  GroupId group = 0;
  ViewId viewid;
  std::uint64_t req_id = 0;
  Mid reply_to = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.req_id, m.reply_to);
  }
  static BeginTxnMsg Decode(wire::Reader& r) { return r.Read<BeginTxnMsg>(); }
};

struct BeginTxnReplyMsg {
  static constexpr MsgType kType = MsgType::kBeginTxnReply;
  std::uint64_t req_id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  Aid aid;
  bool view_known = false;
  ViewId new_viewid;
  View new_view;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.req_id);
    ar.Enum(m.status, ReplyStatus::kFailed);
    ar(m.aid, m.view_known, m.new_viewid, m.new_view);
  }
  static BeginTxnReplyMsg Decode(wire::Reader& r) {
    return r.Read<BeginTxnReplyMsg>();
  }
};

struct CommitReqMsg {
  static constexpr MsgType kType = MsgType::kCommitReq;
  GroupId group = 0;
  ViewId viewid;
  std::uint64_t req_id = 0;
  Aid aid;
  Pset pset;
  Mid reply_to = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.req_id, m.aid, m.pset, m.reply_to);
  }
  static CommitReqMsg Decode(wire::Reader& r) { return r.Read<CommitReqMsg>(); }
};

struct CommitReqReplyMsg {
  static constexpr MsgType kType = MsgType::kCommitReqReply;
  std::uint64_t req_id = 0;
  TxnOutcome outcome = TxnOutcome::kUnknown;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.req_id);
    ar.Enum(m.outcome, TxnOutcome::kAborted);
  }
  static CommitReqReplyMsg Decode(wire::Reader& r) {
    return r.Read<CommitReqReplyMsg>();
  }
};

struct AbortReqMsg {
  static constexpr MsgType kType = MsgType::kAbortReq;
  GroupId group = 0;
  Aid aid;
  Pset pset;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.aid, m.pset);
  }
  static AbortReqMsg Decode(wire::Reader& r) { return r.Read<AbortReqMsg>(); }
};

// ---------------------------------------------------------------------------
// Shard rebalancing (DESIGN.md §11)
// ---------------------------------------------------------------------------

// Primary of the pulling group → primary of the range's current owner: asks
// it to send a shard image of [lo, hi) back as one §9 image frame. The
// image arrives as a SnapshotChunkMsg carrying the SOURCE group's id; the
// puller tells it apart from its own group's images by that group field.
struct ShardPullMsg {
  static constexpr MsgType kType = MsgType::kShardPull;
  GroupId group = 0;       // destination: the range's current owner
  Mid from = 0;            // the pulling primary's mid (image destination)
  GroupId from_group = 0;  // the pulling group
  std::string lo;
  std::string hi;  // "" = +infinity

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.from, m.from_group, m.lo, m.hi);
  }
  static ShardPullMsg Decode(wire::Reader& r) { return r.Read<ShardPullMsg>(); }
};

// ---------------------------------------------------------------------------
// Backup read leases (DESIGN.md §14)
// ---------------------------------------------------------------------------

// Primary → backup: a per-backup read lease pinned to the granting view.
// Renewed on the existing CommBuffer ack traffic (no dedicated timer): the
// primary re-grants whenever it processes an ack from the backup and at
// least half the lease duration has elapsed since the last grant. The grant
// carries the primary's current sub-majority stable watermark so the backup
// can bound what it serves (a read is admitted only up to
// min(applied_ts, lease stable_ts)).
struct LeaseGrantMsg {
  static constexpr MsgType kType = MsgType::kLeaseGrant;
  GroupId group = 0;
  // The view this lease pins. A backup discards grants for any view other
  // than the one it is actively serving.
  ViewId viewid;
  Mid from = 0;  // the granting primary
  // Monotone per-view grant sequence; stale reorderings are dropped.
  std::uint64_t seq = 0;
  // The primary's StableTs() at grant time.
  std::uint64_t stable_ts = 0;
  // Lease validity from the moment of receipt, in host-clock units. The
  // receiver starts the clock at delivery, so clock skew shortens (never
  // lengthens) the usable window relative to the primary's intent.
  std::uint64_t duration = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.viewid, m.from, m.seq, m.stable_ts, m.duration);
  }
  static LeaseGrantMsg Decode(wire::Reader& r) {
    return r.Read<LeaseGrantMsg>();
  }
};

// Client → any cohort of a group: read one object's committed value. The
// horizon is the highest viewstamp any value previously observed by this
// client session was served at — the cohort must refuse rather than serve
// state older than it (monotonic sessions; DESIGN.md §14).
struct BackupReadMsg {
  static constexpr MsgType kType = MsgType::kBackupRead;
  GroupId group = 0;
  std::string uid;
  Viewstamp horizon;
  std::uint64_t corr = 0;  // client correlation id, echoed in the reply
  Mid reply_to = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.group, m.uid, m.horizon, m.corr, m.reply_to);
  }
  static BackupReadMsg Decode(wire::Reader& r) {
    return r.Read<BackupReadMsg>();
  }
};

enum class ReadStatus : std::uint8_t {
  kOk = 0,
  // The serving cohort holds no valid lease for the current view: retry at
  // the primary and expect this member to stay leaseless for a while.
  // primary_hint names the cohort believed to be primary (0 = unknown).
  kWrongLease = 1,
  kNotFound = 2,
  // The cohort holds a valid lease but its provably-stable prefix does not
  // yet cover the client's horizon (or this object's latest committed
  // version). Transient — the watermark advances with the very next lease
  // renewal — so retry at the primary WITHOUT writing the member off.
  kTooNew = 3,
};

struct BackupReadReplyMsg {
  static constexpr MsgType kType = MsgType::kBackupReadReply;
  std::uint64_t corr = 0;
  ReadStatus status = ReadStatus::kWrongLease;
  std::vector<std::uint8_t> value;
  // The viewstamp the value is serialized at: {serving view, install ts of
  // the committed version}. The client folds it into its session horizon.
  Viewstamp served_vs;
  Mid primary_hint = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.corr);
    ar.Enum(m.status, ReadStatus::kTooNew);
    ar(m.value, m.served_vs, m.primary_hint);
  }
  static BackupReadReplyMsg Decode(wire::Reader& r) {
    return r.Read<BackupReadReplyMsg>();
  }
};

// Serializes a message into a frame payload.
template <typename M>
std::vector<std::uint8_t> EncodeMsg(const M& m) {
  return wire::Encode(m);
}

// Decodes a frame payload. Empty unless the bytes parse cleanly and none are
// left over: a payload with trailing bytes is not an M.
template <typename M>
std::optional<M> DecodeFrame(std::span<const std::uint8_t> payload) {
  wire::Reader r(payload);
  M m = r.Read<M>();
  if (!r.ok() || !r.AtEnd()) return std::nullopt;
  return m;
}

#define VSR_KTYPE_MATCHES(Name, tag, name)              \
  static_assert(Name##Msg::kType == MsgType::k##Name, \
                #Name "Msg::kType is not its row's tag");
VSR_MESSAGES(VSR_KTYPE_MATCHES)
#undef VSR_KTYPE_MATCHES

// Whether `visit` takes every message of the list: a dispatch that may drop
// no message type unseen asserts this of its visitor.
template <typename Visit>
inline constexpr bool kVisitsEveryMessage =
#define VSR_TAKES(Name, tag, name) std::is_invocable_v<Visit&, Name##Msg&&>&&
    VSR_MESSAGES(VSR_TAKES) true;
#undef VSR_TAKES

// The one decode step of every frame handler: decodes a frame of tag `type`
// as the message the list pairs with that tag, with DecodeFrame, and hands
// it to `visit`. A message `visit` does not take is dropped undecoded, as
// is a tag no message has; a payload DecodeFrame rejects is dropped.
template <typename Visit>
void VisitFrame(std::uint16_t type, std::span<const std::uint8_t> payload,
                Visit&& visit) {
  switch (static_cast<MsgType>(type)) {
#define VSR_VISIT(Name, tag, name)                                          \
  case MsgType::k##Name:                                                    \
    if constexpr (std::is_invocable_v<Visit&, Name##Msg&&>) {               \
      if (auto m = DecodeFrame<Name##Msg>(payload)) visit(std::move(*m));   \
    }                                                                       \
    return;
    VSR_MESSAGES(VSR_VISIT)
#undef VSR_VISIT
  }
}

}  // namespace vsr::vr
