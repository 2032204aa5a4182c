// A cohort's options. Each is set by a bench, a perfbench workload or a test
// that isolates one mechanism, or is an ablation ROADMAP keeps; the note on
// each field says which. Timings that no experiment varies are constants
// next to the code that reads them (DESIGN.md §17 lists every one).
#pragma once

#include "host/time.h"
#include "storage/event_log.h"
#include "vr/comm_buffer.h"

namespace vsr::core {

// Fixed timing of the server role's outcome path (nothing varies it).
// A primary looks for blocked prepared participants this often (§3.4).
inline constexpr host::Duration kQueryInterval = 250 * host::kMillisecond;
// §3.4: a participant holding locks for a transaction that has gone quiet
// (no call/prepare/commit activity) this long queries the coordinator group
// — abort messages are best-effort, so this is the net that frees locks left
// by vanished or doomed transactions.
inline constexpr host::Duration kIdleTxnTimeout = 700 * host::kMillisecond;
// §3.5: a coordinator-server aborts an externally driven transaction
// unilaterally when the client has gone quiet this long.
inline constexpr host::Duration kExternalTxnTimeout = 2 * host::kSecond;

// Fixed timing of failure detection and view change. The "I'm alive" period
// (§4), and how often a cohort checks its peers against liveness_timeout.
inline constexpr host::Duration kPingInterval = 30 * host::kMillisecond;
inline constexpr host::Duration kFdCheckInterval = 40 * host::kMillisecond;
// §4.1's "fairly long" waits, so slow responders are not excluded: a manager
// forms the view after kInviteResponseWait (or sooner, DESIGN.md §16) and
// retries a failed formation after kViewFormRetry; an underling that sees no
// view form within kUnderlingTimeout becomes a manager.
inline constexpr host::Duration kInviteResponseWait = 150 * host::kMillisecond;
inline constexpr host::Duration kViewFormRetry = 250 * host::kMillisecond;
inline constexpr host::Duration kUnderlingTimeout = 400 * host::kMillisecond;
// §4.1: "a cohort would become a manager only if all higher-priority cohorts
// appear to be inaccessible"; it defers this long per live one.
inline constexpr host::Duration kManagerStagger = 60 * host::kMillisecond;
// A lock request waits this long for a conflicting holder (§3.7); an await
// on a force or a lock gives its callback kAwaitSlack more.
inline constexpr host::Duration kLockWaitTimeout = 150 * host::kMillisecond;
inline constexpr host::Duration kAwaitSlack = 100 * host::kMillisecond;
// An unfinished shard pull re-resolves the source group's primary and
// re-sends the request after this long (DESIGN.md §11). It is the only
// retry of a lost shard image: the source keeps nothing per pull.
inline constexpr host::Duration kShardPullRetry = 250 * host::kMillisecond;

struct CohortOptions {
  // ---- Failure detection (§4: "I'm alive" messages) ----
  // A peer not heard from within this long is suspected. E11 and E12 raise
  // it to isolate catch-up and replay from elections, and protocol_edge_test's
  // Atomicity.DeposedPrimaryDoesNotAnswerFromAnUnforcedAbort raises one
  // cohort's to keep a cut-off primary in its view until its force fails.
  host::Duration liveness_timeout = 120 * host::kMillisecond;

  // ---- Communication buffer ----
  vr::CommBufferOptions buffer;

  // ---- Write-behind durable event log (DESIGN.md §10) ----
  storage::EventLogOptions event_log;

  // ---- Transactions ----
  // CPU cost of executing one procedure call at the primary, modeled as a
  // single serial resource per cohort (0 = calls are free, the default: the
  // simulator then charges only network and storage latency). Benches that
  // measure capacity — E13's throughput-vs-shard-count sweep and E15 — turn
  // this on; with it off a single group can absorb unbounded load and
  // sharding has nothing to show.
  host::Duration call_service_time = 0;
  // Commit transmissions per participant. Tests that must send no COMMIT set
  // 0 (protocol_edge_test's CommitFusion and Queries cases, client35_test).
  int commit_attempts = 5;

  // ---- Backup read leases (DESIGN.md §14) ----
  // Opt-in: the primary grants per-backup read leases (renewed on the
  // existing replication-ack traffic) and backups serve single-object
  // committed reads under them. Off by default — with it off no lease or
  // read frames exist and every delivered-frame digest is unchanged. E15.
  bool backup_reads = false;
  // Validity of each grant from the moment the backup receives it. Renewed
  // at half-life on ack processing; must comfortably exceed the ack
  // round-trip under load, and should stay below kUnderlingTimeout so a
  // partitioned leaseholder's staleness window is bounded by less than the
  // time a new view needs to form and make progress. Set to 60 s by
  // Leases.StaleLeaseNeverServesASessionFromTheFuture to rule out expiry.
  host::Duration read_lease_duration = 60 * host::kMillisecond;

  // ---- Design choices (ROADMAP's ablation list; see DESIGN.md §4) ----
  // Backups apply event records as they arrive (fast primary handoff) vs.
  // store them and replay on promotion (§3.3's trade-off). E4 compares.
  bool eager_backup_apply = true;
  // Force completed-call records even for read-only participants (§3.7).
  // Disabling this is UNSAFE — it exists to demonstrate the two-phase-
  // locking violation the paper warns about (protocol_edge_test).
  bool force_read_only_prepare = true;
  // Run each remote call as a subaction and retry on no-reply instead of
  // aborting the whole transaction (§3.6 nested transactions). E5 and E8
  // compare; E5 also raises the retry count.
  bool nested_call_retry = false;
  int nested_retry_attempts = 3;
  // Active primary may unilaterally add/exclude backups while it retains a
  // sub-majority (§4.1 last paragraph). E4 compares.
  bool unilateral_view_tweaks = false;
  // Persist cur_viewid at the end of a view change (§4.2). Disabling models
  // the fully-volatile ablation and widens the catastrophe window (E9).
  bool write_viewid_durably = true;
  // §6's trade-off knob: force each completed-call record to a sub-majority
  // BEFORE replying. "There would be no aborts due to view changes, but
  // calls would be processed more slowly." Measured in bench E5.
  bool force_calls_before_reply = false;
  // Fused commit path (DESIGN.md §13): for every write transaction, one
  // participant or many, the coordinator reports kCommitted as soon as the
  // committing record is BUFFERED — the decision force and the commit
  // fan-out overlap in background instead of serializing ahead of the
  // client reply, and decision durability rides the replication flush
  // (issued in the same instant) plus the write-behind event log (§10)
  // rather than a dedicated force in the latency path. Off = the classic
  // serial 2PC ladder (prepare round, await, force committing, commit
  // round) — the ablation baseline measured in bench E2.
  bool commit_fusion = true;
};

}  // namespace vsr::core
