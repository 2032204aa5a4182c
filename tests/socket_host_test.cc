// Socket-host integration: the full protocol stack — the same cohort
// objects every deterministic test runs — on real threads and TCP loopback
// sockets. A 3-replica bank group plus a single-member client coordinator
// group commit >= 1000 real transactions, survive a fail-stop primary
// kill via a live view change, and keep the bank invariant (balances sum
// to the deposits) across it all.
//
// Wall-clock, nondeterministic by design: NOT part of the digest suites.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "host/loopback.h"
#include "workload/bank.h"

namespace vsr {
namespace {

core::TxnBody OpenTxn(vr::GroupId bank, const std::string& acct,
                      long long amount) {
  return [bank, acct, amount](core::TxnHandle& h) -> host::Task<bool> {
    co_await h.Call(bank, "open", acct + "=" + std::to_string(amount));
    co_return true;
  };
}

TEST(SocketHost, ThreeReplicaGroupCommitsAndSurvivesPrimaryKill) {
  constexpr int kAccounts = 4;
  constexpr int kTxns = 1000;
  constexpr long long kOpening = 1000;

  host::LoopbackCluster cluster;
  const vr::GroupId bank = cluster.AddGroup("bank", 3);
  const vr::GroupId client = cluster.AddGroup("client", 1);
  for (core::Cohort* c : cluster.Cohorts(bank)) {
    workload::RegisterBankProcs(*c);
  }
  cluster.Start();
  ASSERT_TRUE(cluster.WaitUntilStable(bank));
  ASSERT_TRUE(cluster.WaitUntilStable(client));

  for (int a = 0; a < kAccounts; ++a) {
    auto outcome = cluster.RunTransaction(
        client, OpenTxn(bank, "a" + std::to_string(a), kOpening));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_EQ(*outcome, core::TxnOutcome::kCommitted);
  }

  const auto first_primary = cluster.PrimaryIndex(bank);
  ASSERT_TRUE(first_primary.has_value());

  // Deposit 1 into round-robin accounts. Halfway through, kill the bank
  // primary; transactions that abort while the view change runs are
  // retried, so every deposit eventually lands exactly once.
  int committed = 0;
  bool killed = false;
  for (int t = 0; t < kTxns; ++t) {
    if (!killed && t == kTxns / 2) {
      killed = true;
      const auto p = cluster.PrimaryIndex(bank);
      ASSERT_TRUE(p.has_value());
      cluster.Crash(*p);
    }
    const std::string acct = "a" + std::to_string(t % kAccounts);
    auto outcome = cluster.RunTransaction(
        client, workload::MakeDepositTxn(bank, acct, 1), 30 * host::kSecond);
    ASSERT_TRUE(outcome.has_value()) << "txn " << t << " got no outcome";
    if (*outcome == core::TxnOutcome::kCommitted) {
      ++committed;
    } else {
      // Aborted (or unknown) during the view-change window: retry.
      ASSERT_NE(*outcome, core::TxnOutcome::kUnknown)
          << "coordinator lost its own group?";
      --t;
    }
  }
  EXPECT_EQ(committed, kTxns);

  // A new primary took over (the crashed node stays down).
  const auto new_primary = cluster.PrimaryIndex(bank);
  ASSERT_TRUE(new_primary.has_value());
  EXPECT_NE(*new_primary, *first_primary);
  ASSERT_TRUE(cluster.WaitUntilStable(bank));

  // The money is conserved: read committed balances at the new primary.
  long long total = 0;
  cluster.RunOn(*new_primary, [&](core::Cohort& c) {
    for (int a = 0; a < kAccounts; ++a) {
      auto v = c.objects().ReadCommitted("a" + std::to_string(a));
      if (v && !v->empty()) total += std::stoll(*v);
    }
  });
  EXPECT_EQ(total, kAccounts * kOpening + kTxns);

  cluster.Shutdown();
}

// Commit fusion (DESIGN.md §13) on the real host: genuine cross-group 2PC —
// two 3-replica bank groups plus a coordinator — over TCP loopback with
// commit_fusion at its default (on). Every transfer is a two-participant
// transaction, so every commit takes the fused path: decision reported at
// committing-buffer time, decision force and commit fan-out overlapped on
// real threads. The invariant is exact conservation across both groups,
// plus a primary kill mid-stream to prove the fused windows survive
// fail-stop under TSan.
TEST(SocketHost, CrossGroupFusedCommitsConserveMoneyAcrossPrimaryKill) {
  constexpr int kTxns = 400;
  constexpr long long kOpening = 1000;

  host::LoopbackCluster cluster;
  const vr::GroupId bank_a = cluster.AddGroup("bank-a", 3);
  const vr::GroupId bank_b = cluster.AddGroup("bank-b", 3);
  const vr::GroupId client = cluster.AddGroup("client", 1);
  for (core::Cohort* c : cluster.Cohorts(bank_a)) {
    workload::RegisterBankProcs(*c);
  }
  for (core::Cohort* c : cluster.Cohorts(bank_b)) {
    workload::RegisterBankProcs(*c);
  }
  cluster.Start();
  ASSERT_TRUE(cluster.WaitUntilStable(bank_a));
  ASSERT_TRUE(cluster.WaitUntilStable(bank_b));
  ASSERT_TRUE(cluster.WaitUntilStable(client));

  for (auto [g, acct] : {std::pair{bank_a, "a0"}, std::pair{bank_b, "b0"}}) {
    auto outcome = cluster.RunTransaction(client, OpenTxn(g, acct, kOpening));
    ASSERT_TRUE(outcome.has_value());
    ASSERT_EQ(*outcome, core::TxnOutcome::kCommitted);
  }

  // Alternate transfer direction; kill the bank-b primary halfway through.
  int committed = 0;
  bool killed = false;
  for (int t = 0; t < kTxns; ++t) {
    if (!killed && t == kTxns / 2) {
      killed = true;
      const auto p = cluster.PrimaryIndex(bank_b);
      ASSERT_TRUE(p.has_value());
      cluster.Crash(*p);
    }
    const bool a_to_b = (t % 2) == 0;
    auto outcome = cluster.RunTransaction(
        client,
        a_to_b ? workload::MakeTransferTxn(bank_a, "a0", bank_b, "b0", 1)
               : workload::MakeTransferTxn(bank_b, "b0", bank_a, "a0", 1),
        30 * host::kSecond);
    ASSERT_TRUE(outcome.has_value()) << "txn " << t << " got no outcome";
    if (*outcome == core::TxnOutcome::kCommitted) {
      ++committed;
    } else {
      ASSERT_NE(*outcome, core::TxnOutcome::kUnknown)
          << "coordinator lost its own group?";
      --t;  // aborted during the view-change window: retry
    }
  }
  EXPECT_EQ(committed, kTxns);
  ASSERT_TRUE(cluster.WaitUntilStable(bank_a));
  ASSERT_TRUE(cluster.WaitUntilStable(bank_b));

  // Exact conservation across the two groups: transfers net to zero.
  long long total = 0;
  for (auto [g, acct] : {std::pair{bank_a, "a0"}, std::pair{bank_b, "b0"}}) {
    const auto p = cluster.PrimaryIndex(g);
    ASSERT_TRUE(p.has_value());
    cluster.RunOn(*p, [&, acct = acct](core::Cohort& c) {
      auto v = c.objects().ReadCommitted(acct);
      if (v && !v->empty()) total += std::stoll(*v);
    });
  }
  EXPECT_EQ(total, 2 * kOpening);

  // Every commit in this run was a two-participant transaction, so the
  // coordinator must have taken the fused path for all of them.
  const auto coord = cluster.PrimaryIndex(client);
  ASSERT_TRUE(coord.has_value());
  std::uint64_t fused = 0;
  cluster.RunOn(*coord,
                [&](core::Cohort& c) { fused = c.stats().fused_commits; });
  EXPECT_GE(fused, static_cast<std::uint64_t>(kTxns));

  cluster.Shutdown();
}

// The real host runs one thread per node, its event loop, and nothing
// else: sockets are watched by that loop, not by reader or acceptor
// threads. Counted against the process's threads before the cluster
// exists (the caller's, plus any a sanitizer runtime keeps), after the
// cluster has opened and used connections between all its nodes.
TEST(SocketHost, RunsExactlyOneThreadPerNode) {
  auto threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  const std::size_t before = threads();

  host::LoopbackCluster cluster;
  const vr::GroupId bank = cluster.AddGroup("bank", 3);
  const vr::GroupId client = cluster.AddGroup("client", 1);
  for (core::Cohort* c : cluster.Cohorts(bank)) {
    workload::RegisterBankProcs(*c);
  }
  cluster.Start();
  ASSERT_TRUE(cluster.WaitUntilStable(bank));
  ASSERT_TRUE(cluster.WaitUntilStable(client));
  auto opened = cluster.RunTransaction(client, OpenTxn(bank, "a0", 0));
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(*opened, core::TxnOutcome::kCommitted);
  int committed = 0;
  while (committed < 100) {
    auto outcome =
        cluster.RunTransaction(client, workload::MakeDepositTxn(bank, "a0", 1));
    ASSERT_TRUE(outcome.has_value());
    if (*outcome == core::TxnOutcome::kCommitted) ++committed;
  }

  EXPECT_EQ(cluster.NodeCount(), 4u);
  EXPECT_EQ(threads(), before + cluster.NodeCount());
  cluster.Shutdown();
  // A joined thread's task entry can outlive the join briefly: wait up to
  // one second for the count to settle, then require it exactly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (threads() != before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(threads(), before);
}

}  // namespace
}  // namespace vsr
