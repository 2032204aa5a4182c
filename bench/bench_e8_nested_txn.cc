// E8 — §3.6: "A lack of response causes the entire transaction to abort.
// Such an abort can cause lots of work to be lost. ... A better approach is
// to use nested transactions. ... we can abort just the subaction, and then
// do the call again as a new subaction. ... we need to abort and redo a call
// subaction only when the view changes; thus we do extra work only when the
// problem arises."
//
// Measured: a steady transfer workload with periodic server-primary crashes;
// commit rate and aborts with nested_call_retry off vs on, and the §3.6
// claim that retries happen only around view changes (retry count ~ number
// of interrupted calls, not proportional to total calls).
#include "bench/bench_common.h"
#include "workload/bank.h"
#include "workload/driver.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct RunResult {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unknown = 0;
  std::uint64_t retries = 0;
  double mean_latency_us = 0;
  bool money_conserved = false;
};

RunResult RunWorkload(std::uint64_t seed, bool nested, int crashes) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.cohort.nested_call_retry = nested;
  Cluster cluster(opts);
  auto bank = cluster.AddGroup("bank", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  RunResult out;
  if (!cluster.RunUntilStable()) return out;
  for (int i = 0; i < 4; ++i) {
    test::RunOneCall(cluster, client_g, bank, "open",
                     "a" + std::to_string(i) + "=1000");
  }

  // Crash the bank primary periodically during the run.
  for (int c = 0; c < crashes; ++c) {
    cluster.sim().scheduler().After(
        (500 + static_cast<sim::Duration>(c) * 2500) * sim::kMillisecond,
        [&cluster, bank] {
          auto cohorts = cluster.Cohorts(bank);
          for (std::size_t i = 0; i < cohorts.size(); ++i) {
            if (cohorts[i]->IsActivePrimary()) {
              // Recover a previously crashed cohort first so a majority of
              // up-to-date cohorts always remains.
              for (std::size_t j = 0; j < cohorts.size(); ++j) {
                if (cohorts[j]->status() == core::Status::kCrashed) {
                  cohorts[j]->Recover();
                }
              }
              cohorts[i]->Crash();
              return;
            }
          }
        });
  }

  // Both calls are plain calls. A final call (workload::MakeTransferTxn's
  // deposit) would let the bank decide the transfer in one round, and a
  // final call that gets no reply is settled at the bank, not retried as a
  // subaction (DESIGN.md §13.6); §3.6's retry is what this bench measures.
  sim::Rng rng(seed);
  workload::ClosedLoopDriver driver(
      cluster, client_g,
      [&, bank](std::uint64_t i) -> core::TxnBody {
        const int from = static_cast<int>(i % 4);
        const int to = (from + 1 + static_cast<int>(rng.Index(3))) % 4;
        return [bank, from, to](core::TxnHandle& h) -> host::Task<bool> {
          co_await h.Call(bank, "withdraw", "a" + std::to_string(from) + "=1");
          co_await h.Call(bank, "deposit", "a" + std::to_string(to) + "=1");
          co_return true;
        };
      },
      workload::DriverOptions{.total_txns = 200,
                              .max_inflight = 2,
                              .deadline = 120 * sim::kSecond});
  driver.Run();
  // Recover everyone and settle so blocked participants resolve.
  auto cohorts = cluster.Cohorts(bank);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->status() == core::Status::kCrashed) cluster.Recover(bank, i);
  }
  cluster.RunUntilStable();
  cluster.RunFor(5 * sim::kSecond);

  out.committed = driver.accounting().committed;
  out.aborted = driver.accounting().aborted;
  out.unknown = driver.accounting().unknown;
  out.mean_latency_us = driver.latency().Mean();
  for (auto* c : cluster.Cohorts(client_g)) {
    out.retries += c->stats().subaction_retries;
  }
  out.money_conserved =
      out.unknown > 0 ||
      workload::CommittedBankTotal(cluster, bank, 4) == 4000;
  return out;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E8: nested transactions / subactions (§3.6)",
      "subactions avoid aborting the whole transaction when a call gets no "
      "reply across a view change; extra work only when the problem arises");

  bench::Row("  200 transfer txns, server primary crashed periodically");
  bench::Row("  %-28s | committed | aborted | unknown | sub-retries | conserved",
             "configuration");
  for (int crashes : {0, 3}) {
    for (bool nested : {false, true}) {
      RunResult r = RunWorkload(8000 + crashes * 2 + (nested ? 1 : 0), nested,
                                crashes);
      char label[64];
      std::snprintf(label, sizeof(label), "%d crashes, subactions %s", crashes,
                    nested ? "ON" : "off");
      bench::Row("  %-28s | %9llu | %7llu | %7llu | %11llu | %s", label,
                 static_cast<unsigned long long>(r.committed),
                 static_cast<unsigned long long>(r.aborted),
                 static_cast<unsigned long long>(r.unknown),
                 static_cast<unsigned long long>(r.retries),
                 r.money_conserved ? "yes" : "NO");
    }
  }

  bench::Row("\n  Expect: without crashes both configurations behave alike and");
  bench::Row("  no retries happen (§3.6: 'we do extra work only when the");
  bench::Row("  problem arises'). With crashes, subactions convert most");
  bench::Row("  would-be aborts into commits at the cost of a few retries.");
  return 0;
}
