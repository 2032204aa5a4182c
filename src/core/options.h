// Tunables for a cohort. Defaults model a local-area network of the paper's
// era scaled to the simulator's microsecond clock; every benchmark sweep
// varies these explicitly.
#pragma once

#include "host/time.h"
#include "storage/event_log.h"
#include "vr/comm_buffer.h"
#include "vr/snapshot.h"

namespace vsr::core {

struct CohortOptions {
  // ---- Failure detection (§4: "I'm alive" messages) ----
  host::Duration ping_interval = 30 * host::kMillisecond;
  host::Duration liveness_timeout = 120 * host::kMillisecond;
  host::Duration fd_check_interval = 40 * host::kMillisecond;

  // ---- View change (§4.1: use "fairly long" timeouts so slow responders
  //      are not excluded, which would trigger cascading view changes) ----
  host::Duration invite_response_wait = 150 * host::kMillisecond;
  host::Duration view_form_retry = 250 * host::kMillisecond;
  host::Duration underling_timeout = 400 * host::kMillisecond;
  // Staggered manager eligibility (§4.1: "the cohorts could be ordered, and
  // a cohort would become a manager only if all higher-priority cohorts
  // appear to be inaccessible"). Cohort k in the configuration waits an
  // extra k * manager_stagger before self-promoting to manager.
  host::Duration manager_stagger = 60 * host::kMillisecond;

  // ---- Communication buffer ----
  vr::CommBufferOptions buffer;

  // ---- Snapshot state transfer (DESIGN.md §9) ----
  vr::SnapshotTransferOptions snapshot;

  // ---- Write-behind durable event log (DESIGN.md §10) ----
  // Off by default: the paper's configuration is volatile and E9 must keep
  // reproducing its catastrophe numbers. When enabled, applied records are
  // group-committed to stable storage strictly behind the ack path and
  // Recover() replays them to rejoin with state (view_formation.h cond. 4).
  storage::EventLogOptions event_log;

  // ---- Shard rebalancing (DESIGN.md §11) ----
  // An unfinished cross-group shard pull re-resolves the source group's
  // primary and re-sends the pull request after this long (source primary
  // crashed or stood down mid-transfer).
  host::Duration shard_pull_retry = 250 * host::kMillisecond;

  // ---- Transactions ----
  // CPU cost of executing one procedure call at the primary, modeled as a
  // single serial resource per cohort (0 = calls are free, the default: the
  // simulator then charges only network and storage latency). Benches that
  // measure capacity — e.g. E13's throughput-vs-shard-count sweep — turn
  // this on; with it off a single group can absorb unbounded load and
  // sharding has nothing to show.
  host::Duration call_service_time = 0;
  host::Duration lock_wait_timeout = 150 * host::kMillisecond;
  host::Duration call_timeout = 60 * host::kMillisecond;  // per attempt
  int call_attempts = 3;                                // probes before "no reply"
  host::Duration prepare_timeout = 80 * host::kMillisecond;
  int prepare_attempts = 3;
  host::Duration commit_ack_timeout = 80 * host::kMillisecond;
  int commit_attempts = 5;
  host::Duration probe_timeout = 50 * host::kMillisecond;
  int probe_rounds = 4;
  // Blocked prepared participants query the coordinator group this often
  // (§3.4).
  host::Duration query_interval = 250 * host::kMillisecond;
  // §3.5: a coordinator-server aborts an externally driven transaction
  // unilaterally when the client has gone quiet this long.
  host::Duration external_txn_timeout = 2 * host::kSecond;
  // §3.4: a participant holding locks for a transaction that has gone quiet
  // (no call/prepare/commit activity) queries the coordinator group after
  // this long — abort messages are best-effort, so this is the net that
  // frees locks left by vanished or doomed transactions.
  host::Duration idle_txn_timeout = 700 * host::kMillisecond;

  // ---- Backup read leases (DESIGN.md §14) ----
  // Opt-in: the primary grants per-backup read leases (renewed on the
  // existing replication-ack traffic) and backups serve single-object
  // committed reads under them. Off by default — with it off no lease or
  // read frames exist and every delivered-frame digest is unchanged.
  bool backup_reads = false;
  // Validity of each grant from the moment the backup receives it. Renewed
  // at half-life on ack processing; must comfortably exceed the ack
  // round-trip under load, and should stay below underling_timeout so a
  // partitioned leaseholder's staleness window is bounded by less than the
  // time a new view needs to form and make progress.
  host::Duration read_lease_duration = 60 * host::kMillisecond;

  // ---- Design choices (ablations; see DESIGN.md §4) ----
  // Backups apply event records as they arrive (fast primary handoff) vs.
  // store them and replay on promotion (§3.3's trade-off).
  bool eager_backup_apply = true;
  // Force completed-call records even for read-only participants (§3.7).
  // Disabling this is UNSAFE — it exists to demonstrate the two-phase-
  // locking violation the paper warns about.
  bool force_read_only_prepare = true;
  // Run each remote call as a subaction and retry on no-reply instead of
  // aborting the whole transaction (§3.6 nested transactions).
  bool nested_call_retry = false;
  // Fig. 2 step 4 retries a call after a view-changed rejection, which is
  // only sound when the transport never duplicates frames: "If duplicate
  // messages are possible, we must abort the transaction in this case too"
  // (§3.1 — a duplicate of the rejected transmission may have executed in
  // the old view). Set true only when the network's duplicate probability
  // is zero.
  bool assume_no_duplicates = false;
  int nested_retry_attempts = 3;
  // Active primary may unilaterally add/exclude backups while it retains a
  // sub-majority (§4.1 last paragraph).
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
