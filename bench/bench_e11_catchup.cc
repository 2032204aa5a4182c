// E11 — snapshot-based backup catch-up (DESIGN.md §9). The paper keeps every
// unacknowledged event record in the communication buffer, so a backup that
// falls far behind costs the primary O(lag) memory and a replay of the whole
// backlog once it reconnects. With snapshot_catchup the buffer GCs down to
// StableTs() - window and a reconnecting laggard receives one gstate snapshot
// plus the O(window) record tail instead. Measured: the primary's peak
// resident record count during the lag and the catch-up time/bytes after the
// partition heals, across lag depths up to >10x the replication window, with
// snapshot_catchup on vs. off. Acceptance: with snapshots on, peak resident
// records stay O(window) at every lag depth and 10x-window catch-up cost is
// bounded by snapshot + tail (near-flat in lag) instead of growing with it.
#include <algorithm>
#include <vector>

#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

constexpr std::size_t kWindow = 8;

std::uint64_t BytesOf(Cluster& cluster, vr::MsgType t) {
  const auto& m = cluster.network().stats().bytes_by_type;
  auto it = m.find(static_cast<std::uint16_t>(t));
  return it == m.end() ? 0 : it->second;
}

struct CatchUpResult {
  bool ok = false;          // stabilized, committed everything, caught up
  std::uint64_t lag_records = 0;      // laggard's deficit at heal time
  std::size_t resident_peak = 0;      // max records_.size() at the primary
  double catchup_ms = 0;              // heal -> laggard fully applied
  std::uint64_t snap_bytes = 0;       // kSnapshotChunk+kSnapshotAck, catch-up
  std::uint64_t batch_bytes = 0;      // kBufferBatch during catch-up
  std::uint64_t snapshots_served = 0;
};

CatchUpResult Run(bool snapshot_on, int lag_txns, std::uint64_t seed) {
  ClusterOptions opts;
  opts.seed = seed;
  // Failure detection stays out of the way: this measures state transfer,
  // not elections.
  opts.cohort.liveness_timeout = 60 * sim::kSecond;
  opts.cohort.buffer.window = kWindow;
  opts.cohort.buffer.snapshot_catchup = snapshot_on;
  Cluster cluster(opts);
  auto kv = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 1);
  test::RegisterKvProcs(cluster, kv);
  cluster.Start();
  CatchUpResult r;
  if (!cluster.RunUntilStable()) return r;

  auto cohorts = cluster.Cohorts(kv);
  core::Cohort* primary = nullptr;
  core::Cohort* laggard = nullptr;
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) {
      primary = cohorts[i];
      laggard = cohorts[(i + 1) % cohorts.size()];
    }
  }
  if (primary == nullptr) return r;

  // Build the lag: cut the laggard off and keep committing.
  cluster.network().SetLinkDown(primary->mid(), laggard->mid(), true);
  bool committed_all = true;
  for (int i = 0; i < lag_txns; ++i) {
    committed_all =
        committed_all &&
        test::RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)) ==
            vr::TxnOutcome::kCommitted;
    r.resident_peak =
        std::max(r.resident_peak, primary->buffer().records().size());
  }
  cluster.RunFor(200 * sim::kMillisecond);
  r.resident_peak =
      std::max(r.resident_peak, primary->buffer().records().size());
  const std::uint64_t target = primary->buffer().last_ts();
  r.lag_records = target - laggard->applied_ts();

  // Heal and measure the catch-up phase in isolation.
  const std::uint64_t snap0 = BytesOf(cluster, vr::MsgType::kSnapshotChunk) +
                              BytesOf(cluster, vr::MsgType::kSnapshotAck);
  const std::uint64_t batch0 = BytesOf(cluster, vr::MsgType::kBufferBatch);
  cluster.network().SetLinkDown(primary->mid(), laggard->mid(), false);
  const sim::Time heal_time = cluster.sim().Now();
  const sim::Time deadline = heal_time + 30 * sim::kSecond;
  while (laggard->applied_ts() < target && cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMicrosecond);
  }
  r.catchup_ms = static_cast<double>(cluster.sim().Now() - heal_time) /
                 sim::kMillisecond;
  r.snap_bytes = BytesOf(cluster, vr::MsgType::kSnapshotChunk) +
                 BytesOf(cluster, vr::MsgType::kSnapshotAck) - snap0;
  r.batch_bytes = BytesOf(cluster, vr::MsgType::kBufferBatch) - batch0;
  r.snapshots_served = primary->buffer().stats().snapshots_served;
  r.ok = committed_all && laggard->applied_ts() >= target;
  return r;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E11 — backup catch-up: snapshot state transfer vs. backlog replay "
      "(DESIGN.md §9)",
      "the buffer need only hold O(window) records; a laggard beyond the GC "
      "horizon catches up from one gstate snapshot + the record tail, so "
      "catch-up cost is bounded by snapshot + tail instead of growing with "
      "the lag");

  // Lag depth in transactions (each txn appends ~2 event records, so the
  // points run 0.5x to 10x the window of 8 records). Smoke mode runs them
  // unshrunk: they are multiples of the window, and the whole bench takes
  // milliseconds.
  const int lag_points[] = {2, 4, 20, 40};

  bench::Row("  replication window %zu records; each snapshot is one image "
             "frame, re-served every 20 ms until installed",
             kWindow);
  bench::Row("");
  bench::Row("  %8s %6s | %8s %10s %8s %8s %5s | %8s %10s %8s",
             "lag rec", "x win", "on:resid", "on:ms", "on:snapB", "on:batB",
             "served", "off:resid", "off:ms", "off:batB");

  bool all_ok = true;
  CatchUpResult on_min, on_mid, on_max, off_max;
  std::uint64_t seed = 41000;
  for (std::size_t i = 0; i < std::size(lag_points); ++i) {
    const CatchUpResult on = Run(true, lag_points[i], seed);
    const CatchUpResult off = Run(false, lag_points[i], seed);
    seed += 2;
    all_ok = all_ok && on.ok && off.ok;
    if (i == 0) on_min = on;
    if (i + 2 == std::size(lag_points)) on_mid = on;
    if (i + 1 == std::size(lag_points)) {
      on_max = on;
      off_max = off;
    }
    bench::Row(
        "  %8llu %5.1fx | %8zu %9.1f %8llu %8llu %5llu | %8zu %9.1f %8llu",
        static_cast<unsigned long long>(on.lag_records),
        static_cast<double>(on.lag_records) / kWindow, on.resident_peak,
        on.catchup_ms, static_cast<unsigned long long>(on.snap_bytes),
        static_cast<unsigned long long>(on.batch_bytes),
        static_cast<unsigned long long>(on.snapshots_served),
        off.resident_peak, off.catchup_ms,
        static_cast<unsigned long long>(off.batch_bytes));
  }

  // Acceptance: (1) every run converges; (2) with snapshots on, the primary
  // never holds more than window + one flush batch of records no matter the
  // lag; (3) at the deepest lag the snapshot path replays at most as many
  // record bytes as the backlog-replay path (catch-up is snapshot + tail,
  // not the full lag) while the replay path's resident set has grown past
  // the bound the snapshot path obeys.
  const std::size_t resid_bound = kWindow + 64;  // window + vr::kMaxBatch
  const bool resid_ok = on_max.resident_peak <= resid_bound;
  const bool tail_ok = on_max.batch_bytes < off_max.batch_bytes;
  // Relative to the snapshot path so the check also holds for the shrunken
  // smoke-mode lag depths.
  const bool replay_grows =
      off_max.resident_peak > 2 * std::max<std::size_t>(on_max.resident_peak,
                                                        kWindow);
  bench::Row("");
  bench::Row("  snapshot-on resident peak at deepest lag: %zu (bound %zu) -> %s",
             on_max.resident_peak, resid_bound, resid_ok ? "MET" : "NOT MET");
  bench::Row("  snapshot-on catch-up at %.1fx window: %llu snapshot B + %llu "
             "record B vs %llu record B replayed -> %s",
             static_cast<double>(on_max.lag_records) / kWindow,
             static_cast<unsigned long long>(on_max.snap_bytes),
             static_cast<unsigned long long>(on_max.batch_bytes),
             static_cast<unsigned long long>(off_max.batch_bytes),
             tail_ok ? "TAIL ONLY" : "NOT MET");
  bench::Row("  replay-mode resident peak at deepest lag: %zu -> %s",
             off_max.resident_peak,
             replay_grows ? "O(lag), as predicted" : "unexpectedly bounded");
  bench::Row("  catch-up time %.1fms (snapshot, %.1fx) vs %.1fms (shallow "
             "%.1fx): the wait for the laggard's next image request (at",
             on_max.catchup_ms,
             static_cast<double>(on_max.lag_records) / kWindow,
             on_min.catchup_ms,
             static_cast<double>(on_min.lag_records) / kWindow);
  bench::Row("  most 20 ms) plus one image frame, not the lag depth.");
  bench::Row("  all runs converged: %s", all_ok ? "yes" : "NO");
  bench::Row("  Expect: the on-mode columns stay flat as lag deepens (one");
  bench::Row("  snapshot + O(window) tail); the off-mode resident set and");
  bench::Row("  catch-up replay grow linearly with the lag.");
  bench::Metric("snapshot_catchup_ms_5x", on_mid.catchup_ms);
  bench::Metric("snapshot_catchup_ms_10x", on_max.catchup_ms);
  return (all_ok && resid_ok && tail_ok && replay_grows) ? 0 : 1;
}
