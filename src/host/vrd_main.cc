// vrd: run the replicated transaction stack for real — threads, TCP
// sockets, wall-clock timers — against the same protocol objects the
// deterministic simulator verifies.
//
//   vrd [--replicas N] [--txns N] [--accounts N] [--kill-primary]
//       [--trace]
//
// Topology (mirrors examples/quickstart.cpp): a "bank" group of N replicas
// holds the accounts; a single-member "client" group coordinates the
// transactions (the paper's §3 client-module role). Each deposit is a full
// distributed transaction: client primary -> bank primary call, 2PC
// prepare/commit across the pset, forces to backup sub-majorities.
//
// With --kill-primary the bank primary is fail-stop crashed halfway
// through; the run then demonstrates a live view change on the wall clock:
// commits stall, the backups elect a new primary, and the remaining
// transactions land in the new view.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "host/loopback.h"
#include "workload/bank.h"

namespace {

using namespace vsr;

double Pct(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t i = static_cast<std::size_t>(p * (v.size() - 1));
  return v[i];
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t replicas = 3;
  int txns = 1000;
  int accounts = 8;
  bool kill_primary = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0;
    };
    if (arg("--replicas") && i + 1 < argc) replicas = std::stoul(argv[++i]);
    else if (arg("--txns") && i + 1 < argc) txns = std::stoi(argv[++i]);
    else if (arg("--accounts") && i + 1 < argc) accounts = std::stoi(argv[++i]);
    else if (arg("--kill-primary")) kill_primary = true;
    else if (arg("--trace")) trace = true;
    else {
      std::fprintf(stderr,
                   "usage: vrd [--replicas N] [--txns N] [--accounts N] "
                   "[--kill-primary] [--trace]\n");
      return 2;
    }
  }

  host::LoopbackOptions opts;
  if (trace) opts.trace = host::TraceLevel::kDebug;
  host::LoopbackCluster cluster(opts);
  const vr::GroupId bank = cluster.AddGroup("bank", replicas);
  const vr::GroupId client = cluster.AddGroup("client", 1);
  for (core::Cohort* c : cluster.Cohorts(bank)) {
    workload::RegisterBankProcs(*c);
  }

  cluster.Start();
  std::printf("vrd: %zu bank replicas + 1 client coordinator on 127.0.0.1\n",
              replicas);
  if (!cluster.WaitUntilStable(bank) || !cluster.WaitUntilStable(client)) {
    std::fprintf(stderr, "vrd: groups failed to form views\n");
    return 1;
  }
  std::printf("vrd: views formed; bank primary is node %zu\n",
              *cluster.PrimaryIndex(bank));

  for (int a = 0; a < accounts; ++a) {
    const std::string acct = "a" + std::to_string(a);
    auto outcome = cluster.RunTransaction(
        client,
        [bank, acct](core::TxnHandle& h) -> host::Task<bool> {
          co_await h.Call(bank, "open", acct + "=1000");
          co_return true;
        });
    if (!outcome || *outcome != core::TxnOutcome::kCommitted) {
      std::fprintf(stderr, "vrd: failed to open %s\n", acct.c_str());
      return 1;
    }
  }

  int kill_at = kill_primary ? txns / 2 : -1;
  int committed = 0, aborted = 0, unknown = 0;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(txns));

  const auto run_start = std::chrono::steady_clock::now();
  for (int t = 0; t < txns; ++t) {
    if (t == kill_at) {
      kill_at = -1;  // aborted txns rewind t; the kill must not re-fire
      const auto p = cluster.PrimaryIndex(bank);
      if (p) {
        std::printf("vrd: killing bank primary (node %zu) at txn %d\n", *p, t);
        cluster.Crash(*p);
      }
    }
    const std::string acct = "a" + std::to_string(t % accounts);
    const auto t0 = std::chrono::steady_clock::now();
    auto outcome = cluster.RunTransaction(
        client, workload::MakeDepositTxn(bank, acct, 1), 30 * host::kSecond);
    const auto t1 = std::chrono::steady_clock::now();
    if (outcome && *outcome == core::TxnOutcome::kCommitted) {
      ++committed;
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    } else if (outcome && *outcome == core::TxnOutcome::kAborted) {
      ++aborted;
      --t;  // a txn aborted during the view-change window: retry it
    } else {
      ++unknown;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  std::printf("vrd: %d committed, %d aborted(retried), %d unknown in %.2fs "
              "(%.0f txn/s)\n",
              committed, aborted, unknown, wall_s, committed / wall_s);
  std::printf("vrd: latency p50=%.0fus p90=%.0fus p99=%.0fus\n",
              Pct(latencies_us, 0.50), Pct(latencies_us, 0.90),
              Pct(latencies_us, 0.99));
  if (kill_primary) {
    std::printf("vrd: survived primary kill; bank primary is now node %zu\n",
                cluster.PrimaryIndex(bank).value_or(static_cast<std::size_t>(-1)));
  }

  cluster.Shutdown();
  const bool ok = committed >= txns - unknown && committed > 0;
  std::printf("vrd: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
