// Sharded bank: one logical store range-partitioned across three module
// groups, with live rebalancing while money moves.
//
// The paper treats a module as the unit of distribution (§2); this example
// shards a single bank's key space "a000".."a023" over three replicated
// groups via the placement directory (DESIGN.md §11). A teller group runs
// random transfers — transfers whose two accounts land on different shards
// commit through genuine two-phase cross-group transactions (§3.2). Halfway
// through, shard0's entire key range migrates to shard2 while traffic keeps
// flowing; the audit then checks placement sanity and that not a single unit
// of currency was created or destroyed.
//
//   $ ./sharded_bank [seed]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "client/cluster.h"
#include "client/shard_rebalancer.h"
#include "client/shard_router.h"
#include "workload/driver.h"
#include "workload/sharded_bank.h"

using namespace vsr;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2026;
  client::ClusterOptions opts;
  opts.seed = seed;
  client::Cluster cluster(opts);

  // Three shard groups (3 replicas each) plus a client group; the placement
  // directory tiles "a000".."a023" across them in contiguous ranges.
  constexpr int kAccounts = 24;
  constexpr long long kInitial = 1000;
  auto bank = workload::SetupShardedBank(cluster, /*num_shards=*/3,
                                         /*replicas_per_group=*/3, kAccounts);
  cluster.Start();
  if (!cluster.RunUntilStable()) {
    std::puts("cluster failed to stabilize");
    return 1;
  }
  if (workload::FundShardedAccounts(cluster, bank, kInitial) != kAccounts) {
    std::puts("funding failed");
    return 1;
  }
  std::printf("funded %d accounts x %lld across %zu shards (epoch %llu)\n",
              kAccounts, kInitial, bank.shards.size(),
              static_cast<unsigned long long>(
                  cluster.directory().placement_epoch()));
  for (const auto& r : cluster.directory().ranges()) {
    std::printf("  [%4s, %4s) -> group %llu\n",
                r.lo.empty() ? "-inf" : r.lo.c_str(),
                r.hi.empty() ? "+inf" : r.hi.c_str(),
                static_cast<unsigned long long>(r.owner));
  }

  // The router caches placement and refreshes on wrong-shard rejections, so
  // tellers keep working across the epoch bump below.
  client::ShardRouter router(cluster.directory());
  client::ShardRebalancer rebalancer(cluster);

  // Halfway through the run, move shard0's whole range to shard2 — bulk
  // snapshot pull, drain, settle, then an atomic epoch flip (DESIGN.md §11).
  bool move_done = false, move_ok = false;
  cluster.sim().scheduler().After(150 * sim::kMillisecond, [&] {
    const core::ShardRange* r =
        cluster.directory().Route(workload::ShardAccountName(0));
    if (r == nullptr || r->owner == bank.shards[2]) return;
    std::printf("[%s] rebalancing [%s, %s) from group %llu to group %llu\n",
                sim::FormatDuration(cluster.sim().Now()).c_str(),
                r->lo.empty() ? "-inf" : r->lo.c_str(), r->hi.c_str(),
                static_cast<unsigned long long>(r->owner),
                static_cast<unsigned long long>(bank.shards[2]));
    rebalancer.Move(r->lo, r->hi, bank.shards[2], [&](bool ok) {
      move_done = true;
      move_ok = ok;
      std::printf("[%s] rebalance %s (handoff window %s)\n",
                  sim::FormatDuration(cluster.sim().Now()).c_str(),
                  ok ? "committed" : "failed",
                  sim::FormatDuration(rebalancer.stats().last_handoff_window)
                      .c_str());
    });
  });

  // 120 random transfers; pairs that straddle a shard boundary become
  // two-participant distributed transactions. Generous retries bridge the
  // handoff window while the range is in flight.
  sim::Rng rng(seed + 1);
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t) {
        const int from = static_cast<int>(rng.Index(kAccounts));
        int to = static_cast<int>(rng.Index(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        return workload::MakeShardedTransferTxn(
            router, workload::ShardAccountName(from),
            workload::ShardAccountName(to),
            1 + static_cast<long long>(rng.Index(20)));
      },
      workload::DriverOptions{.total_txns = 120,
                              .max_inflight = 4,
                              .retries_per_txn = 100});
  driver.Run();
  cluster.RunFor(2 * sim::kSecond);

  std::printf("\nresults: %llu committed, %llu aborted, %llu unknown, "
              "%llu router refreshes\n",
              static_cast<unsigned long long>(driver.accounting().committed),
              static_cast<unsigned long long>(driver.accounting().aborted),
              static_cast<unsigned long long>(driver.accounting().unknown),
              static_cast<unsigned long long>(router.refreshes()));
  std::printf("commit latency: %s\n", driver.latency().Summary().c_str());
  std::printf("placement after move (epoch %llu):\n",
              static_cast<unsigned long long>(
                  cluster.directory().placement_epoch()));
  for (const auto& r : cluster.directory().ranges()) {
    std::printf("  [%4s, %4s) -> group %llu\n",
                r.lo.empty() ? "-inf" : r.lo.c_str(),
                r.hi.empty() ? "+inf" : r.hi.c_str(),
                static_cast<unsigned long long>(r.owner));
  }

  // Audit: the placement map must still tile the key space, and summing the
  // committed balance of every account at its current owner must give back
  // exactly what the bank started with.
  check::CheckPlacement(cluster.directory());
  std::vector<std::string> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(workload::ShardAccountName(i));
  }
  check::CheckConservation(cluster, accounts, kAccounts * kInitial);
  const long long total = workload::ShardedBankTotal(cluster, kAccounts);
  std::printf("audit: move %s, total = %lld -> %s\n",
              move_done && move_ok ? "completed" : "DID NOT COMPLETE", total,
              total == kAccounts * kInitial ? "CONSERVED" : "VIOLATION!");
  return (move_done && move_ok && total == kAccounts * kInitial) ? 0 : 1;
}
