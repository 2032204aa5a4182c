// E5 — §6: "Our view change algorithm is highly likely not to lose work in a
// view change. If a transaction's effects are known at the new primary, the
// transaction can commit."  §2: "Transactions that prepared in the old view
// will be able to commit, and those that committed will still be committed.
// Transactions that had not yet prepared before the change may be able to
// prepare afterwards, depending on whether the completion events of the
// remote calls are known in the new view."  Baseline (§5): "Virtual
// partitions force transactions that were active across a view change to
// abort."
//
// Measured: a burst of transactions is started just before the server
// primary crashes; we count how many survive (commit) across the view
// change under (a) VR with viewstamps, (b) VR with subactions (§3.6), and
// compare with the virtual-partitions rule (survivors = 0 by protocol).
// Also sweeps the call-to-crash gap: the longer the background buffer has to
// replicate completed-call records, the more work survives. The subaction
// row crashes earlier, while some calls of the burst are still in flight:
// §3.6 re-runs exactly those, as fresh subactions in the new view.
#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct Survival {
  int committed = 0;
  int aborted = 0;
  int unknown = 0;
  int replied = 0;   // transactions whose call replied before the crash
  int betrayed = 0;  // of those, the ones that did not commit
};

Survival MeasureSurvival(std::uint64_t seed, bool nested, sim::Duration gap,
                         int burst, bool force_calls = false) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.cohort.nested_call_retry = nested;
  opts.cohort.force_calls_before_reply = force_calls;
  // Allow enough attempts to ride out the failure-detection + view-change
  // window (~400ms) given the per-attempt probe/timeout budget.
  opts.cohort.nested_retry_attempts = 6;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  Survival s;
  if (!cluster.RunUntilStable()) return s;

  // Start the burst; each transaction performs its call, then "computes"
  // until well past the crash, then commits.
  sim::Scheduler* sched = &cluster.sim().scheduler();
  core::Cohort* cp = cluster.AnyPrimary(client_g);
  int resolved = 0;
  // A call re-run as a subaction after the crash replies too; only a reply
  // seen before the crash counts as work the client was told about.
  bool crashed = false;
  std::vector<bool> replied(burst, false);
  for (int i = 0; i < burst; ++i) {
    cp->SpawnTransaction(
        [server, sched, i, &crashed, &replied](
            core::TxnHandle& h) -> sim::Task<bool> {
          co_await h.Call(server, "put",
                          std::string("w") + std::to_string(i) + "=x");
          if (!crashed) replied[i] = true;
          // Think until the dust of the view change settles, then commit.
          co_await sim::Sleep(*sched, 3 * sim::kSecond);
          co_return true;
        },
        [&, i](vr::TxnOutcome o) {
          ++resolved;
          if (replied[i]) {
            ++s.replied;
            if (o != vr::TxnOutcome::kCommitted) ++s.betrayed;
          }
          switch (o) {
            case vr::TxnOutcome::kCommitted:
              ++s.committed;
              break;
            case vr::TxnOutcome::kAborted:
              ++s.aborted;
              break;
            default:
              ++s.unknown;
          }
        });
  }
  // Let the calls complete, wait out the gap, then kill the server primary.
  cluster.RunFor(gap);
  auto cohorts = cluster.Cohorts(server);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) {
      cluster.Crash(server, i);
      break;
    }
  }
  crashed = true;
  const sim::Time deadline = cluster.sim().Now() + 60 * sim::kSecond;
  while (resolved < burst && cluster.sim().Now() < deadline) {
    cluster.RunFor(20 * sim::kMillisecond);
  }
  return s;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E5: work lost in a view change (§2, §6 vs §5 baseline)",
      "viewstamps preserve transactions whose completed-call events reached a "
      "sub-majority; virtual partitions abort everything active");

  const int kBurst = 20;
  bench::Row("  burst of %d in-flight txns; server primary crashes after a gap",
             kBurst);
  bench::Row("  %-34s | replied | committed | betrayed | VP baseline",
             "scenario");
  bench::Row("  %-34s |         |           | (replied, not committed) |", "");
  struct Case {
    const char* label;
    bool nested;
    sim::Duration gap;
  };
  const Case cases[] = {
      // ~1ms: calls have executed and replied, but the background buffer
      // flush (0.5ms) + delivery has not reached the backups for all of
      // them — some completed-call events die with the primary.
      {"gap 1ms  (records not replicated)", false, 1 * sim::kMillisecond},
      {"gap 50ms (records replicated)", false, 50 * sim::kMillisecond},
      // 0.7ms: some calls replied (their records may die with the primary),
      // the rest are still in flight and get no reply.
      {"gap 0.7ms + subactions (§3.6)", true, 700 * sim::kMicrosecond},
      {"gap 50ms + subactions (§3.6)", true, 50 * sim::kMillisecond},
  };
  int case_idx = 0;
  for (const Case& c : cases) {
    Survival s = MeasureSurvival(5000 + case_idx++, c.nested, c.gap, kBurst);
    bench::Row("  %-34s | %7d | %9d | %8d | 0 survive", c.label, s.replied,
               s.committed, s.betrayed);
    if (c.nested && c.gap < 50 * sim::kMillisecond) {
      // Calls re-run as subactions after the crash commit: never 0.
      bench::Metric("short_gap_subactions_committed", s.committed);
    }
  }
  // §6: "if 'completed call' records were forced to the backups before the
  // call returned, there would be no aborts due to view changes, but calls
  // would be processed more slowly." A call whose reply arrived is majority-
  // known by construction, so "betrayed" is structurally zero — the cost is
  // that fewer calls complete before the crash at all.
  for (sim::Duration gap : {1 * sim::kMillisecond, 4 * sim::kMillisecond}) {
    Survival s = MeasureSurvival(5010 + gap, false, gap, kBurst,
                                 /*force_calls=*/true);
    char label[64];
    std::snprintf(label, sizeof(label), "gap %-4s + forced calls (§6)",
                  sim::FormatDuration(gap).c_str());
    bench::Row("  %-34s | %7d | %9d | %8d | 0 survive", label, s.replied,
               s.committed, s.betrayed);
  }

  bench::Row("\n  Expect: with a 50ms gap the background buffer has replicated");
  bench::Row("  every completed-call record, so ~all transactions survive the");
  bench::Row("  change (VP: none). With a 1ms gap some records die with the");
  bench::Row("  primary; those transactions abort via compatible(). Subactions");
  bench::Row("  (§3.6) re-run the calls that got no reply before the crash in");
  bench::Row("  the new view, and those commit; a call that replied is not");
  bench::Row("  re-run, so its lost record still aborts its transaction.");
  return 0;
}
