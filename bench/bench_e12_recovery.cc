// E12 — crashed-cohort recovery with the write-behind durable event log
// (DESIGN.md §10). The paper's configuration is volatile, so §4.2 accepts a
// majority-loss catastrophe as the price of a force-free fast path. The
// event log keeps that fast path (appends trail the ack by one group-commit
// interval) and buys back a recovery story. Measured here:
//
//   1. local replay cost as the log grows (crash -> state restored);
//   2. rejoin catch-up time as a function of the suffix missed while down,
//      including the automatic fallback to a §9 snapshot once the primary
//      has GC'd past the crashed cohort's watermark;
//   3. the catastrophe-survival matrix: full-majority storms with all disks
//      surviving vs. k disks replaced (diskless cohorts are amnesiac and
//      condition 4 correctly refuses to count them).
#include <chrono>

#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

core::CohortOptions LoggedOptions() {
  core::CohortOptions o;
  o.event_log.enabled = true;
  return o;
}

std::size_t IndexOfPrimary(Cluster& cluster, vr::GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

// Group-commit interval + force latency + slack.
constexpr sim::Duration kLogSettle = 100 * sim::kMillisecond;

// -- 1. replay cost ---------------------------------------------------------

struct ReplayResult {
  std::uint64_t records_replayed = 0;
  // Host wall-clock for the synchronous Recover() call: simulated reads are
  // free (the store models only write latency), so replay cost is real time.
  double replay_wall_us = 0;
  bool ok = false;
};

ReplayResult MeasureReplay(int committed_before_crash) {
  ReplayResult out;
  core::CohortOptions opts = LoggedOptions();
  opts.liveness_timeout = 60 * sim::kSecond;  // isolate replay from elections
  ClusterOptions copts;
  copts.seed = 1200 + committed_before_crash;
  Cluster cluster(copts);
  auto g = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  test::RegisterKvProcs(cluster, g);
  cluster.Start();
  if (!cluster.RunUntilStable()) return out;

  const std::size_t pi = IndexOfPrimary(cluster, g);
  core::Cohort& backup = cluster.CohortAt(g, (pi + 1) % 3);
  for (int i = 0; i < committed_before_crash; ++i) {
    if (test::RunOneCallWithRetry(cluster, client_g, g, "put",
                                  "k" + std::to_string(i) + "=v") !=
        vr::TxnOutcome::kCommitted) {
      return out;
    }
  }
  cluster.RunFor(kLogSettle);

  backup.Crash();
  cluster.RunFor(10 * sim::kMillisecond);
  const auto wall_start = std::chrono::steady_clock::now();
  backup.Recover();
  const auto wall_end = std::chrono::steady_clock::now();
  out.records_replayed = backup.stats().log_records_replayed;
  out.replay_wall_us =
      std::chrono::duration<double, std::micro>(wall_end - wall_start).count();
  out.ok = backup.stats().log_recoveries == 1 &&
           backup.status() == core::Status::kActive;
  return out;
}

// -- 2. rejoin catch-up -----------------------------------------------------

struct RejoinResult {
  double catchup_us = 0;  // Recover() to applied_ts == primary last_ts
  std::uint64_t snapshots = 0;
  bool ok = false;
};

RejoinResult MeasureRejoin(int missed_while_down, std::size_t window) {
  RejoinResult out;
  core::CohortOptions opts = LoggedOptions();
  opts.liveness_timeout = 60 * sim::kSecond;
  opts.buffer.window = window;
  ClusterOptions copts;
  copts.seed = 1300 + missed_while_down + static_cast<int>(window);
  Cluster cluster(copts);
  auto g = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  test::RegisterKvProcs(cluster, g);
  cluster.Start();
  if (!cluster.RunUntilStable()) return out;

  const std::size_t pi = IndexOfPrimary(cluster, g);
  core::Cohort& primary = cluster.CohortAt(g, pi);
  core::Cohort& backup = cluster.CohortAt(g, (pi + 1) % 3);
  if (test::RunOneCallWithRetry(cluster, client_g, g, "put", "seed=1") !=
      vr::TxnOutcome::kCommitted) {
    return out;
  }
  cluster.RunFor(kLogSettle);

  backup.Crash();
  for (int i = 0; i < missed_while_down; ++i) {
    if (test::RunOneCallWithRetry(cluster, client_g, g, "put",
                                  "m" + std::to_string(i) + "=v") !=
        vr::TxnOutcome::kCommitted) {
      return out;
    }
  }
  cluster.RunFor(100 * sim::kMillisecond);

  const sim::Time start = cluster.sim().Now();
  backup.Recover();
  const sim::Time deadline = start + 20 * sim::kSecond;
  while (backup.applied_ts() < primary.buffer().last_ts() &&
         cluster.sim().Now() < deadline) {
    cluster.RunFor(1 * sim::kMillisecond);
  }
  out.catchup_us = static_cast<double>(cluster.sim().Now() - start);
  out.snapshots = backup.stats().snapshots_installed;
  out.ok = backup.applied_ts() == primary.buffer().last_ts();
  return out;
}

// -- 3. survival matrix -----------------------------------------------------

struct StormResult {
  int trials = 0;
  int survived = 0;     // view re-formed
  int wrong_views = 0;  // re-formed but lost committed state (must be 0)
};

StormResult RunStorms(std::size_t diskless, int trials) {
  StormResult out;
  for (int t = 0; t < trials; ++t) {
    core::CohortOptions opts = LoggedOptions();
    ClusterOptions copts;
    copts.seed = 1400 + t * 17 + static_cast<int>(diskless);
    Cluster cluster(copts);
    auto g = cluster.AddGroup("kv", 3, &opts);
    auto client_g = cluster.AddGroup("client", 1);
    test::RegisterKvProcs(cluster, g);
    cluster.Start();
    if (!cluster.RunUntilStable()) continue;
    if (test::RunOneCallWithRetry(cluster, client_g, g, "put", "vital=data") !=
        vr::TxnOutcome::kCommitted) {
      continue;
    }
    cluster.RunFor(kLogSettle);
    ++out.trials;

    for (std::size_t i = 0; i < 3; ++i) cluster.Crash(g, i);
    cluster.RunFor(50 * sim::kMillisecond);
    // The first `diskless` cohorts lost their disks in the storm.
    for (std::size_t i = 0; i < 3; ++i) {
      if (i < diskless) {
        cluster.RecoverDiskless(g, i);
      } else {
        cluster.Recover(g, i);
      }
    }
    if (!cluster.RunUntilStable(15 * sim::kSecond)) continue;
    ++out.survived;
    if (test::CommittedValue(cluster, g, "vital") != "data") ++out.wrong_views;
  }
  return out;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E12: durable event log — replay, rejoin, and storm survival (§10)",
      "a write-behind log off the critical path makes §4.2 majority-loss "
      "catastrophes survivable when the disks survive");

  const int kTrials = bench::Scaled(20);

  bench::Row("\n  1. Local replay cost (crash a backup, recover from its log;");
  bench::Row("     host wall-clock for the synchronous replay — the simulator");
  bench::Row("     models write latency only, so replay is real CPU cost):");
  bench::Row("     %-22s | %-16s | %s", "committed pre-crash", "records replayed",
             "replay wall time");
  for (int n : {10, bench::Scaled(100), bench::Scaled(400)}) {
    auto r = MeasureReplay(n);
    bench::Row("     %-22d | %-16llu | %8.0f us%s", n,
               static_cast<unsigned long long>(r.records_replayed),
               r.replay_wall_us, r.ok ? "" : "  (FAILED)");
  }

  bench::Row("\n  2. Rejoin catch-up vs. suffix missed while down (window=64;");
  bench::Row("     a long-enough absence falls below the GC floor and the");
  bench::Row("     primary serves a snapshot instead of the record stream):");
  bench::Row("     %-22s | %-12s | %s", "missed while down", "catch-up",
             "path");
  // Not shrunk in smoke mode: 200 missed commits fall below the GC floor,
  // so the snapshot rejoin is measured (and gated) in both modes.
  for (int m : {8, 32, 200}) {
    auto r = MeasureRejoin(m, /*window=*/64);
    bench::Row("     %-22d | %8.0f us | %s%s", m, r.catchup_us,
               r.snapshots > 0 ? "snapshot" : "record stream",
               r.ok ? "" : "  (FAILED)");
    if (r.snapshots > 0 && r.ok) {
      bench::Metric("snapshot_rejoin_us_" + std::to_string(m), r.catchup_us);
    }
  }

  bench::Row("\n  3. Full-majority storm survival (crash all 3, recover with k");
  bench::Row("     disks replaced; 'wrong views' must be 0 in every cell):");
  bench::Row("     %-22s | %-12s | %s", "disks replaced", "survived",
             "wrong views");
  for (std::size_t diskless : {0u, 1u, 2u, 3u}) {
    auto r = RunStorms(diskless, kTrials);
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%d / %d", r.survived, r.trials);
    bench::Row("     %-22zu | %-12s | %d", diskless, cell, r.wrong_views);
  }

  bench::Row("\n  Expect: replay cost linear in log length; catch-up via the");
  bench::Row("  record stream for short absences, one snapshot transfer below");
  bench::Row("  the GC floor; storms survive iff every cohort kept its disk");
  bench::Row("  (condition 4 needs the full configuration state-bearing), and");
  bench::Row("  no cell ever forms a wrong view.");
  return 0;
}
