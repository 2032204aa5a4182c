// Protocol edge cases the paper calls out explicitly:
//  * several active primaries after a partition (§4.1) — safe because the
//    stale one cannot force, hence cannot commit
//  * lost abort messages recovered via queries (§3.4)
//  * the §3.7 requirement to force completed-call records even for
//    read-only participants — disabling it breaks two-phase locking across
//    a view change (demonstrated, as an ablation)
#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "check/invariants.h"
#include "client/shard_router.h"
#include "tests/test_util.h"
#include "workload/bank.h"
#include "workload/driver.h"
#include "workload/sharded_bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using test::RegisterKvProcs;

TEST(MultiPrimary, StalePrimaryStaysActiveButCannotCommit) {
  Cluster cluster(ClusterOptions{.seed = 91});
  auto kv = cluster.AddGroup("kv", 3);
  auto agents_a = cluster.AddGroup("agents-a", 3);  // stranded with old primary
  auto agents_b = cluster.AddGroup("agents-b", 3);  // on the majority side
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  core::Cohort* old_primary = cluster.AnyPrimary(kv);
  ASSERT_NE(old_primary, nullptr);
  const vr::ViewId old_view = old_primary->cur_viewid();
  // §4.1's premise: "the old primary is slow to notice the need for a view
  // change and continues to respond to client requests even after the new
  // view is formed."
  old_primary->mutable_options().liveness_timeout = 60 * sim::kSecond;

  // Partition: {old primary, agents-a} vs {both backups, agents-b}.
  std::vector<net::NodeId> side_a{old_primary->mid()};
  std::vector<net::NodeId> side_b;
  for (auto* c : cluster.Cohorts(kv)) {
    if (c != old_primary) side_b.push_back(c->mid());
  }
  for (auto* c : cluster.Cohorts(agents_a)) side_a.push_back(c->mid());
  for (auto* c : cluster.Cohorts(agents_b)) side_b.push_back(c->mid());
  cluster.network().Partition({side_a, side_b});

  // Majority side forms a new view; give the failure detector time, but not
  // so much that the stale primary notices (it cannot: its pings go nowhere,
  // but receives nothing either — it eventually becomes a manager; sample
  // while it is still active).
  sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  core::Cohort* new_primary = nullptr;
  bool saw_dual_active = false;
  while (cluster.sim().Now() < deadline) {
    cluster.RunFor(10 * sim::kMillisecond);
    new_primary = nullptr;
    for (auto* c : cluster.Cohorts(kv)) {
      if (c->IsActivePrimary() && c != old_primary &&
          c->cur_viewid() > old_view) {
        new_primary = c;
      }
    }
    if (new_primary != nullptr && old_primary->IsActivePrimary() &&
        old_primary->cur_viewid() == old_view) {
      saw_dual_active = true;  // §4.1: "several active primaries"
      break;
    }
  }
  ASSERT_TRUE(saw_dual_active);

  // The stale primary accepts a call but the transaction cannot commit:
  // "The old primary will not be able to prepare and commit user
  //  transactions, however, since it cannot force their effects" (§4.1).
  auto stale = test::RunOneCall(cluster, agents_a, kv, "put", "stale=1",
                                3 * sim::kSecond);
  EXPECT_NE(stale, vr::TxnOutcome::kCommitted);

  // Meanwhile the real primary commits fine.
  auto fresh = test::RunOneCallWithRetry(cluster, agents_b, kv, "put", "ok=1");
  EXPECT_EQ(fresh, vr::TxnOutcome::kCommitted);

  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, kv, "stale"), "");
  EXPECT_EQ(test::CommittedValue(cluster, kv, "ok"), "1");
}

// A group that coordinates a transaction it also takes part in records the
// outcome (its committing or aborted record) before its participant role
// gets to apply it. The store must still install or discard the effects.
TEST(SelfCoordination, CommitInstallsAtEveryCohort) {
  Cluster cluster(ClusterOptions{.seed = 5});
  auto kv = cluster.AddGroup("kv", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  ASSERT_EQ(test::RunOneCall(cluster, kv, kv, "put", "x=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(1 * sim::kSecond);
  for (core::Cohort* c : cluster.Cohorts(kv)) {
    if (c->status() != core::Status::kActive) continue;
    EXPECT_EQ(c->objects().ReadCommitted("x").value_or(""), "1")
        << "cohort " << c->mid();
    EXPECT_TRUE(c->objects().ActiveTxns().empty()) << "cohort " << c->mid();
  }
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

TEST(SelfCoordination, AbortReleasesLocksForTheNextWrite) {
  Cluster cluster(ClusterOptions{.seed = 5});
  auto kv = cluster.AddGroup("kv", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  core::Cohort* primary = cluster.AnyPrimary(kv);
  ASSERT_NE(primary, nullptr);
  std::optional<vr::TxnOutcome> outcome;
  primary->SpawnTransaction(
      [kv](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(kv, "put", std::string("x=1"));
        co_return false;  // the application decides to abort
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  while (!outcome) cluster.RunFor(10 * sim::kMillisecond);
  EXPECT_EQ(*outcome, vr::TxnOutcome::kAborted);
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_TRUE(primary->objects().ActiveTxns().empty());

  EXPECT_EQ(test::RunOneCall(cluster, kv, kv, "put", "x=2"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(1 * sim::kSecond);
  for (core::Cohort* c : cluster.Cohorts(kv)) {
    if (c->status() != core::Status::kActive) continue;
    EXPECT_EQ(c->objects().ReadCommitted("x").value_or(""), "2")
        << "cohort " << c->mid();
  }
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

// A delayed duplicate of a committed transaction's call arrives after a
// later transaction overwrote its key. The commit pruned the call's dedup
// entry, so only the outcome table can say the call must not run again;
// re-running it would take locks for a settled transaction and, once the
// janitor installed them, roll the key back to the first value.
TEST(DuplicateSuppression, LateCallOfACommittedTxnDoesNotRunAgain) {
  Cluster cluster(ClusterOptions{.seed = 6});
  auto agents = cluster.AddGroup("agents", 3);
  auto kv = cluster.AddGroup("kv", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  std::optional<net::Frame> first_call;
  cluster.network().set_observer([&](const net::Frame& f) {
    if (!first_call && static_cast<vr::MsgType>(f.type) == vr::MsgType::kCall) {
      first_call = f;
    }
  });
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "put", "x=1"),
            vr::TxnOutcome::kCommitted);
  cluster.network().set_observer(nullptr);
  ASSERT_TRUE(first_call.has_value());
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "put", "x=2"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);

  cluster.network().Send(first_call->from, first_call->to, first_call->type,
                         first_call->payload);
  cluster.RunFor(3 * sim::kSecond);  // well past core::kIdleTxnTimeout
  EXPECT_EQ(test::CommittedValue(cluster, kv, "x"), "2");
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

TEST(Queries, LostAbortIsRecoveredByJanitor) {
  // §3.4: "if the transaction aborts, we send abort messages to the
  // participants, but do not guarantee they will arrive. Instead, a cohort
  // that needs to know whether an abort occurred sends a query."
  Cluster cluster(ClusterOptions{.seed = 92});
  auto kv = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  core::Cohort* coord = cluster.AnyPrimary(agents);
  core::Cohort* server_primary = cluster.AnyPrimary(kv);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(server_primary, nullptr);

  // The transaction writes, thinks for 50ms, then aborts. We cut the
  // coordinator-primary <-> server-primary link mid-think so the abort
  // message is guaranteed lost.
  sim::Scheduler* sched = &cluster.sim().scheduler();
  bool done = false;
  coord->SpawnTransaction(
      [kv, sched](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(kv, "put", std::string("locked=1"));
        co_await sim::Sleep(*sched, 50 * sim::kMillisecond);
        co_return false;  // abort — but the abort message will be lost
      },
      [&](vr::TxnOutcome o) {
        done = true;
        EXPECT_EQ(o, vr::TxnOutcome::kAborted);
      });
  cluster.sim().scheduler().After(20 * sim::kMillisecond, [&] {
    cluster.network().SetLinkDown(coord->mid(), server_primary->mid(), true);
  });
  while (!done) cluster.RunFor(5 * sim::kMillisecond);

  // The write lock on "locked" is stranded at the server. The janitor
  // queries the coordinator group (its backups are reachable and know the
  // aborted outcome from the event record) and frees it.
  cluster.RunFor(3 * sim::kSecond);
  cluster.network().SetLinkDown(coord->mid(), server_primary->mid(), false);

  auto outcome = test::RunOneCallWithRetry(cluster, agents, kv, "put",
                                           "locked=2");
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, kv, "locked"), "2");
}

// The §3.7 ablation: "Even when a transaction only has read locks, we must
// force the 'completed-call' records to the backups when preparing to ensure
// that read locks are held across a view change. ... Without the force, the
// prepare could succeed at the old primary even though the locks did not
// survive. In essence, not doing the force is equivalent to not sending the
// prepare message to a read-only participant; such prepare messages are
// needed to prevent violations of two-phase locking."
vr::TxnOutcome ReadOnlyAcrossPartition(bool force_read_only) {
  ClusterOptions opts;
  opts.seed = 93;
  opts.cohort.force_read_only_prepare = force_read_only;
  // Fixed one-way delay so the race window is deterministic: T1's reply
  // (call + reply = 600us) must beat the partition, while the completed-call
  // record (flush 500us after execution, delivered at ~1.1ms) must not.
  opts.net.delay_min = opts.net.delay_max = 300 * sim::kMicrosecond;
  Cluster cluster(opts);
  auto kv = cluster.AddGroup("kv", 3);
  auto agents_a = cluster.AddGroup("agents-a", 3);
  auto agents_b = cluster.AddGroup("agents-b", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  if (!cluster.RunUntilStable()) return vr::TxnOutcome::kUnknown;
  if (test::RunOneCall(cluster, agents_b, kv, "put", "x=original") !=
      vr::TxnOutcome::kCommitted) {
    return vr::TxnOutcome::kUnknown;
  }
  // Prime agents-a's primary-location cache so T1's call needs no probe.
  if (test::RunOneCall(cluster, agents_a, kv, "get", "x") !=
      vr::TxnOutcome::kCommitted) {
    return vr::TxnOutcome::kUnknown;
  }
  cluster.RunFor(300 * sim::kMillisecond);

  core::Cohort* old_primary = cluster.AnyPrimary(kv);
  // Slow to notice, as in §4.1.
  old_primary->mutable_options().liveness_timeout = 60 * sim::kSecond;
  sim::Scheduler* sched = &cluster.sim().scheduler();

  // T1 (at agents-a): READ x, think 3s, then prepare/commit — a read-only
  // participant at kv.
  vr::TxnOutcome t1_outcome = vr::TxnOutcome::kUnknown;
  bool t1_done = false;
  cluster.AnyPrimary(agents_a)->SpawnTransaction(
      [kv, sched](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(kv, "get", std::string("x"));
        co_await sim::Sleep(*sched, 3 * sim::kSecond);
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        t1_outcome = o;
        t1_done = true;
      });
  // T1's read executes at ~600us and its reply arrives at ~900us; the
  // completed-call record would reach the backups at ~1.4ms. Partition at
  // 1ms: the read-lock record dies with the old side.
  cluster.RunFor(1 * sim::kMillisecond);

  // Partition: {old primary + agents-a} vs {backups + agents-b}.
  std::vector<net::NodeId> side_a{old_primary->mid()};
  std::vector<net::NodeId> side_b;
  for (auto* c : cluster.Cohorts(kv)) {
    if (c != old_primary) side_b.push_back(c->mid());
  }
  for (auto* c : cluster.Cohorts(agents_a)) side_a.push_back(c->mid());
  for (auto* c : cluster.Cohorts(agents_b)) side_b.push_back(c->mid());
  cluster.network().Partition({side_a, side_b});

  // Majority side elects a new primary where T1's read lock never existed;
  // T2 writes x and commits — conflicting with T1's (lost) read lock.
  cluster.RunFor(1500 * sim::kMillisecond);
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, agents_b, kv, "put",
                                      "x=overwritten"),
            vr::TxnOutcome::kCommitted);

  // T1 now prepares at the STALE primary.
  const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  while (!t1_done && cluster.sim().Now() < deadline) {
    cluster.RunFor(10 * sim::kMillisecond);
  }
  cluster.network().Heal();
  return t1_outcome;
}

TEST(Ablation, ReadOnlyPrepareForceIsRequiredForTwoPhaseLocking) {
  // With the force (the paper's design): the stale primary cannot reach a
  // sub-majority, the prepare is refused, T1 aborts — SAFE.
  EXPECT_EQ(ReadOnlyAcrossPartition(/*force_read_only=*/true),
            vr::TxnOutcome::kAborted);
  // Without it (the ablation): the stale primary answers prepared from its
  // own state, T1 commits concurrently with T2's conflicting write — the
  // 2PL violation the paper warns about.
  EXPECT_EQ(ReadOnlyAcrossPartition(/*force_read_only=*/false),
            vr::TxnOutcome::kCommitted);
}

TEST(Dedup, RetransmittedCallIsAnsweredNotReExecuted) {
  // Heavy duplication: every call frame is delivered twice. Executions must
  // not double: run read-modify-write increments and verify the counter
  // equals the commit count exactly.
  ClusterOptions opts;
  opts.seed = 94;
  opts.net.duplicate_probability = 1.0;  // worst case
  Cluster cluster(opts);
  auto kv = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    if (test::RunOneCall(cluster, agents, kv, "add", "ctr=1") ==
        vr::TxnOutcome::kCommitted) {
      ++committed;
    }
  }
  cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, kv, "ctr"),
            std::to_string(committed));
  // And duplicates actually hit the suppression path.
  std::uint64_t suppressed = 0;
  for (auto* c : cluster.Cohorts(kv)) {
    suppressed += c->stats().duplicate_calls_suppressed;
  }
  EXPECT_GT(suppressed, 0u);
}

TEST(Replication, OutOfOrderBatchesRecoverViaGapRequests) {
  // Lossy network: pipelined buffer batches arrive with holes. Backups must
  // stash the out-of-order records, name the exact hole in their ack, and
  // resume applying once the primary fills it — without losing commits.
  ClusterOptions opts;
  opts.seed = 95;
  opts.net.loss_probability = 0.20;
  Cluster cluster(opts);
  auto kv = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  int committed = 0;
  for (int i = 0; i < 40; ++i) {
    if (test::RunOneCallWithRetry(cluster, agents, kv, "add", "ctr=1") ==
        vr::TxnOutcome::kCommitted) {
      ++committed;
    }
  }
  cluster.RunFor(2 * sim::kSecond);
  ASSERT_GT(committed, 0);
  EXPECT_EQ(test::CommittedValue(cluster, kv, "ctr"),
            std::to_string(committed));

  // The recovery machinery was actually exercised.
  std::uint64_t stashed = 0, from_stash = 0, gap_sent = 0, gap_honored = 0;
  for (auto* c : cluster.Cohorts(kv)) {
    stashed += c->stats().records_stashed_out_of_order;
    from_stash += c->stats().records_applied_from_stash;
    gap_sent += c->stats().gap_requests_sent;
    gap_honored += c->buffer().stats().gap_requests;
  }
  EXPECT_GT(stashed, 0u);
  EXPECT_GT(from_stash, 0u);
  EXPECT_GT(gap_sent, 0u);
  EXPECT_GT(gap_honored, 0u);
}

TEST(Dedup, DuplicatePrepareIsAnsweredIdempotently) {
  // Every frame delivered twice: retransmitted prepares for transactions
  // that are already prepared (or committed) here must be re-answered from
  // the recorded state — never re-run through the compatibility check, whose
  // refusal path would abort a prepared transaction.
  ClusterOptions opts;
  opts.seed = 96;
  opts.net.duplicate_probability = 1.0;
  // Wide jitter: the duplicate's independent delay draw often lands it long
  // after the original's prepare finished — the re-answer path, not the
  // in-flight drop.
  opts.net.delay_min = 300 * sim::kMicrosecond;
  opts.net.delay_max = 15 * sim::kMillisecond;
  Cluster cluster(opts);
  auto kv = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    if (test::RunOneCall(cluster, agents, kv, "add", "ctr=1") ==
        vr::TxnOutcome::kCommitted) {
      ++committed;
    }
  }
  cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, kv, "ctr"),
            std::to_string(committed));
  std::uint64_t dup_answered = 0, aborts = 0;
  for (auto* c : cluster.Cohorts(kv)) {
    dup_answered += c->stats().duplicate_prepares_answered;
    aborts += c->stats().aborts_applied;
  }
  EXPECT_GT(dup_answered, 0u);
  EXPECT_EQ(aborts, 0u);  // no duplicate ever tripped the refusal path
}


TEST(Prepare, ViewChangeInOneShardRefusesPrepareAndAbortsEverywhere) {
  // §3.2 across shards: a cross-shard transfer executes at both participant
  // groups, then one participant's primary is partitioned away BEFORE its
  // completed-call record reaches a sub-majority. The backups elect a new
  // view that never saw the call, so the pset entry fails the compatibility
  // check when the prepare arrives — the participant refuses, and the
  // coordinator must abort at EVERY participant: no orphaned prepared state,
  // no stranded locks, balances untouched.
  ClusterOptions opts;
  opts.seed = 97;
  // Fixed one-way delay so the race window is deterministic: the deposit's
  // reply is back at ~1.2ms but its completed-call record only flushes at
  // ~1.4ms — partitioning at 1.3ms strands the record at the old primary.
  opts.net.delay_min = opts.net.delay_max = 300 * sim::kMicrosecond;
  Cluster cluster(opts);
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 10);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 10);
  cluster.RunFor(300 * sim::kMillisecond);

  const vr::GroupId g0 = bank.shards[0];  // owns a000..a004
  const vr::GroupId g1 = bank.shards[1];  // owns a005..a009
  core::Cohort* b_primary = cluster.AnyPrimary(g1);
  ASSERT_NE(b_primary, nullptr);
  const vr::ViewId b_view = b_primary->cur_viewid();
  sim::Scheduler* sched = &cluster.sim().scheduler();

  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  cluster.AnyPrimary(bank.client_group)
      ->SpawnTransaction(
          [g0, g1, sched](core::TxnHandle& h) -> sim::Task<bool> {
            co_await h.Call(g0, "withdraw", std::string("a000=5"));
            co_await h.Call(g1, "deposit", std::string("a005=5"));
            // Think long enough for the stranded group to change views.
            co_await sim::Sleep(*sched, 3 * sim::kSecond);
            co_return true;
          },
          [&](vr::TxnOutcome o) {
            outcome = o;
            done = true;
          });

  // Both calls have replied by 1.2ms; the deposit record flushes at 1.4ms.
  cluster.RunFor(1300 * sim::kMicrosecond);
  std::vector<net::NodeId> rest;
  for (auto g : cluster.AllGroups()) {
    for (auto* c : cluster.Cohorts(g)) {
      if (c != b_primary) rest.push_back(c->mid());
    }
  }
  cluster.network().Partition({{b_primary->mid()}, rest});

  const sim::Time deadline = cluster.sim().Now() + 20 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(10 * sim::kMillisecond);
  }
  ASSERT_TRUE(done);
  // The shard-1 view changed underneath the transaction, its entry failed
  // compatibility, the prepare was refused, and the whole transfer aborted —
  // including at shard 0, which had prepared successfully.
  EXPECT_EQ(outcome, vr::TxnOutcome::kAborted);
  core::Cohort* b_new = cluster.AnyPrimary(g1);
  ASSERT_NE(b_new, nullptr);
  EXPECT_GT(b_new->cur_viewid(), b_view);
  std::uint64_t refused = 0;
  for (auto* c : cluster.Cohorts(g1)) refused += c->stats().prepares_refused;
  EXPECT_GE(refused, 1u);

  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(3 * sim::kSecond);

  // Atomicity: neither leg's effect survived.
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 100);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a005"), 100);
  // No orphaned prepares or stranded locks anywhere: both accounts can be
  // locked again immediately, and no participant holds live transactions.
  for (auto g : bank.shards) {
    for (auto* c : cluster.Cohorts(g)) {
      EXPECT_TRUE(c->objects().ActiveTxns().empty())
          << "cohort " << c->mid() << " holds orphaned transactions";
    }
  }
  vr::TxnOutcome outcome2 = vr::TxnOutcome::kUnknown;
  for (int attempt = 0;
       attempt < 10 && outcome2 != vr::TxnOutcome::kCommitted; ++attempt) {
    bool done2 = false;
    core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
    ASSERT_NE(coord, nullptr);
    coord->SpawnTransaction(
        [g0, g1](core::TxnHandle& h) -> sim::Task<bool> {
          co_await h.Call(g0, "withdraw", std::string("a000=5"));
          co_await h.Call(g1, "deposit", std::string("a005=5"));
          co_return true;
        },
        [&](vr::TxnOutcome o) {
          outcome2 = o;
          done2 = true;
        });
    const sim::Time deadline2 = cluster.sim().Now() + 20 * sim::kSecond;
    while (!done2 && cluster.sim().Now() < deadline2) {
      cluster.RunFor(10 * sim::kMillisecond);
    }
    ASSERT_TRUE(done2);
  }
  EXPECT_EQ(outcome2, vr::TxnOutcome::kCommitted);
  cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 95);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a005"), 105);
}

// -- commit fusion (DESIGN.md §13) -----------------------------------------

namespace {

std::vector<std::string> BankAccounts(int n) {
  std::vector<std::string> accounts;
  for (int i = 0; i < n; ++i) {
    accounts.push_back(workload::ShardAccountName(i));
  }
  return accounts;
}

core::CohortStats SumStats(client::Cluster& cluster, vr::GroupId g) {
  core::CohortStats sum;
  for (auto* c : cluster.Cohorts(g)) {
    const auto& s = c->stats();
    sum.fused_commits += s.fused_commits;
    sum.duplicate_prepares_answered += s.duplicate_prepares_answered;
    sum.commits_stashed_during_prepare += s.commits_stashed_during_prepare;
    sum.commits_applied += s.commits_applied;
    sum.queries_sent += s.queries_sent;
    sum.queries_resolved += s.queries_resolved;
    sum.sibling_query_resolutions += s.sibling_query_resolutions;
  }
  return sum;
}

}  // namespace

// Ablation parity: the fused path and the classic serial ladder must agree
// on every observable outcome of a cross-shard transfer workload — exact
// conservation, no stranded locks — while only the fused run reports
// decisions at committing-buffer time.
TEST(CommitFusion, FusedAndSerialPathsAgreeOnCrossShardTransfers) {
  for (bool fusion : {true, false}) {
    ClusterOptions opts;
    opts.seed = 98;
    opts.cohort.commit_fusion = fusion;
    Cluster cluster(opts);
    auto bank = workload::SetupShardedBank(cluster, 2, 3, 12);
    cluster.Start();
    ASSERT_TRUE(cluster.RunUntilStable());
    ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 12);

    client::ShardRouter router(cluster.directory());
    sim::Rng rng(11);
    workload::DriverOptions dopts;
    dopts.total_txns = 30;
    dopts.max_inflight = 3;
    dopts.retries_per_txn = 10;
    workload::ClosedLoopDriver driver(
        cluster, bank.client_group,
        [&](std::uint64_t) {
          // Always cross-shard: shard 0 holds a000..a005, shard 1 the rest.
          const int from = static_cast<int>(rng.Index(6));
          const int to = 6 + static_cast<int>(rng.Index(6));
          return workload::MakeShardedTransferTxn(
              router, workload::ShardAccountName(from),
              workload::ShardAccountName(to), 2);
        },
        dopts);
    ASSERT_TRUE(driver.Run()) << "fusion=" << fusion;
    cluster.RunFor(2 * sim::kSecond);

    EXPECT_GT(driver.accounting().committed, 0u) << "fusion=" << fusion;
    EXPECT_EQ(driver.accounting().unknown, 0u) << "fusion=" << fusion;
    EXPECT_TRUE(
        check::CheckConservation(cluster, BankAccounts(12), 1200).empty())
        << "fusion=" << fusion;
    for (auto g : bank.shards) {
      EXPECT_TRUE(check::CheckQuiescent(cluster, g).empty())
          << "fusion=" << fusion;
    }
    const auto coord = SumStats(cluster, bank.client_group);
    if (fusion) {
      EXPECT_GE(coord.fused_commits, driver.accounting().committed);
    } else {
      EXPECT_EQ(coord.fused_commits, 0u);
    }
  }
}

// Matrix row 1 (DESIGN.md §13.4): the coordinator crashes after buffering
// the committing record but before ANY commit message reaches a participant.
// The client was already told kCommitted (fused report-at-buffer), so the
// replicated committing record is the only copy of the decision — the
// coordinator's backups must answer the participants' §3.4/§3.6 queries
// with "committed" after the view change, and money must move exactly once.
TEST(CommitFusion, CoordinatorCrashBeforeCommitFanoutResolvesCommitted) {
  Cluster cluster(ClusterOptions{.seed = 99});
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 8);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 8);

  core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
  ASSERT_NE(coord, nullptr);
  const vr::ViewId coord_view = coord->cur_viewid();
  // Deterministic "no commit message is ever sent": the fused decision is
  // buffered and force-replicated, but CommitOne's send loop never runs.
  coord->mutable_options().commit_attempts = 0;
  // The single-group funding deposits above fused too; count only this one.
  const std::uint64_t fused_before = coord->stats().fused_commits;

  client::ShardRouter router(cluster.directory());
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  coord->SpawnTransaction(
      workload::MakeShardedTransferTxn(router, "a000", "a004", 7),
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
      });
  const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(done);
  // Fused: committed is reported at buffer time, before any participant
  // has heard the decision.
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(coord->stats().fused_commits - fused_before, 1u);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 100);

  // Let the decision force reach the coordinator's backups, then kill it.
  cluster.RunFor(2 * sim::kMillisecond);
  coord->Crash();

  // Participants hold prepared transactions with no coordinator primary.
  // Their janitors query; the coordinator group view-changes; the new
  // primary answers from the replicated committing record.
  const sim::Time resolve_deadline = cluster.sim().Now() + 30 * sim::kSecond;
  while (cluster.sim().Now() < resolve_deadline &&
         workload::ShardedCommittedBalance(cluster, "a004") != 107) {
    cluster.RunFor(50 * sim::kMillisecond);
  }
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 93);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a004"), 107);
  EXPECT_TRUE(check::CheckConservation(cluster, BankAccounts(8), 800).empty());

  // The balances can resolve before the coordinator group finishes its view
  // change (backups answer queries from the replicated record directly);
  // wait for the new view separately.
  core::Cohort* new_coord = nullptr;
  const sim::Time view_deadline = cluster.sim().Now() + 20 * sim::kSecond;
  while (new_coord == nullptr && cluster.sim().Now() < view_deadline) {
    cluster.RunFor(100 * sim::kMillisecond);
    new_coord = cluster.AnyPrimary(bank.client_group);
  }
  ASSERT_NE(new_coord, nullptr);
  EXPECT_GT(new_coord->cur_viewid(), coord_view);
  std::uint64_t resolved = 0;
  for (auto g : bank.shards) resolved += SumStats(cluster, g).queries_resolved;
  EXPECT_GE(resolved, 1u);
  // No participant orphans a prepared transaction (§3.6).
  for (auto g : bank.shards) {
    for (auto* c : cluster.Cohorts(g)) {
      EXPECT_TRUE(c->objects().ActiveTxns().empty())
          << "cohort " << c->mid() << " holds orphaned transactions";
    }
  }
}

// Matrix row 1 for a lone participant (DESIGN.md §13.2): a single-group
// deposit made with a plain call (no final-call mark, so no one-round
// commit, §13.6) fuses like a cross-shard transfer. The coordinator reports
// kCommitted with the committing record buffered and no commit message ever
// sent, and crashes in that same virtual instant — so the only copies of the
// decision that survive are the frames the fused path's force put on the
// wire before the report. The bank's prepared deposit must resolve committed
// through a §3.4 query answered from that replicated record, and the balance
// must move exactly once.
TEST(CommitFusion, SingleGroupDepositResolvesCommittedAfterCoordinatorCrash) {
  Cluster cluster(ClusterOptions{.seed = 105});
  const vr::GroupId bank = cluster.AddGroup("bank", 3);
  const vr::GroupId client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, client_g, bank, "open", "a0=100"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);  // the open's fan-out settles

  core::Cohort* coord = cluster.AnyPrimary(client_g);
  ASSERT_NE(coord, nullptr);
  const vr::ViewId coord_view = coord->cur_viewid();
  coord->mutable_options().commit_attempts = 0;
  const std::uint64_t fused_before = coord->stats().fused_commits;
  const auto commit_type = static_cast<std::uint16_t>(vr::MsgType::kCommit);
  auto commits_sent = [&] {
    const auto& by_type = cluster.network().stats().sent_by_type;
    const auto it = by_type.find(commit_type);
    return it == by_type.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t commits_before = commits_sent();

  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  std::uint64_t commits_at_report = 0;
  coord->SpawnTransaction(
      [bank](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(bank, "deposit", std::string("a0=7"));
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
        commits_at_report = commits_sent();
        // Same instant, after this event: no frame has landed anywhere yet.
        cluster.sim().scheduler().After(0, [coord] { coord->Crash(); });
      });
  const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(commits_at_report, commits_before);
  EXPECT_EQ(coord->stats().fused_commits - fused_before, 1u);
  EXPECT_EQ(coord->status(), core::Status::kCrashed);
  EXPECT_EQ(workload::CommittedBankTotal(cluster, bank, 1), 100);

  const sim::Time resolve_deadline = cluster.sim().Now() + 30 * sim::kSecond;
  while (cluster.sim().Now() < resolve_deadline &&
         workload::CommittedBankTotal(cluster, bank, 1) != 107) {
    cluster.RunFor(50 * sim::kMillisecond);
  }
  EXPECT_EQ(workload::CommittedBankTotal(cluster, bank, 1), 107);
  EXPECT_EQ(commits_sent(), commits_before);
  EXPECT_GE(SumStats(cluster, bank).queries_resolved, 1u);
  for (auto* c : cluster.Cohorts(bank)) {
    EXPECT_TRUE(c->objects().ActiveTxns().empty())
        << "cohort " << c->mid() << " holds orphaned transactions";
  }

  core::Cohort* new_coord = nullptr;
  const sim::Time view_deadline = cluster.sim().Now() + 20 * sim::kSecond;
  while (new_coord == nullptr && cluster.sim().Now() < view_deadline) {
    cluster.RunFor(100 * sim::kMillisecond);
    new_coord = cluster.AnyPrimary(client_g);
  }
  ASSERT_NE(new_coord, nullptr);
  EXPECT_GT(new_coord->cur_viewid(), coord_view);
  // Exactly once: more time changes nothing.
  cluster.RunFor(3 * sim::kSecond);
  EXPECT_EQ(workload::CommittedBankTotal(cluster, bank, 1), 107);
}

// A fused decision's force still pending when its coordinator crashes is
// dropped with the buffer, callback and all: the buffer counts it as
// abandoned, since the fused path's failed-force count never sees it.
TEST(CommitFusion, CrashCountsTheAbandonedDecisionForce) {
  Cluster cluster(ClusterOptions{.seed = 105});
  const vr::GroupId bank = cluster.AddGroup("bank", 3);
  const vr::GroupId client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, client_g, bank, "open", "a0=100"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);

  core::Cohort* coord = cluster.AnyPrimary(client_g);
  ASSERT_NE(coord, nullptr);
  const std::uint64_t abandoned_before =
      coord->buffer().stats().forces_abandoned;
  const std::uint64_t failed_before = coord->stats().fused_decision_forces_failed;
  bool done = false;
  coord->SpawnTransaction(
      [bank](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(bank, "deposit", std::string("a0=7"));
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        EXPECT_EQ(o, vr::TxnOutcome::kCommitted);
        done = true;
        // Same instant, after this event: the decision's force is pending,
        // no ack has come back yet.
        cluster.sim().scheduler().After(0, [coord] { coord->Crash(); });
      });
  const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(coord->status(), core::Status::kCrashed);
  EXPECT_GE(coord->buffer().stats().forces_abandoned - abandoned_before, 1u);
  EXPECT_EQ(coord->stats().fused_decision_forces_failed, failed_before);
}

// Matrix row 2 (DESIGN.md §13.4): the coordinator crashes mid-fan-out —
// one participant received the commit, the other never will. The crash of
// the shard-1 primary is staged inside on_done, which runs in the same
// instant the decision is made, so the commit frame to shard 1 is still in
// flight (min one-way delay 100us) and is dropped at delivery; shard 0's
// copy lands normally. Shard 1 must then resolve through its own view
// change plus §3.4 queries against the coordinator's new view.
TEST(CommitFusion, CoordinatorCrashMidFanoutNeverOrphansPrepared) {
  Cluster cluster(ClusterOptions{.seed = 100});
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 8);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 8), 8);

  core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
  core::Cohort* b_primary = cluster.AnyPrimary(bank.shards[1]);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(b_primary, nullptr);
  std::size_t b_idx = 0;
  {
    auto cohorts = cluster.Cohorts(bank.shards[1]);
    for (std::size_t i = 0; i < cohorts.size(); ++i) {
      if (cohorts[i] == b_primary) b_idx = i;
    }
  }

  client::ShardRouter router(cluster.directory());
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  coord->SpawnTransaction(
      workload::MakeShardedTransferTxn(router, "a000", "a004", 3),
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
        // Same-instant crash: the commit frame addressed to this primary is
        // in flight and will be dropped at delivery (receiver down).
        b_primary->Crash();
      });
  const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);

  // Shard 0's commit copy lands; then the coordinator primary dies before
  // any retransmission to shard 1 can fire.
  cluster.RunFor(2 * sim::kMillisecond);
  coord->Crash();

  const sim::Time resolve_deadline = cluster.sim().Now() + 40 * sim::kSecond;
  while (cluster.sim().Now() < resolve_deadline &&
         workload::ShardedCommittedBalance(cluster, "a004") != 11) {
    cluster.RunFor(50 * sim::kMillisecond);
  }
  // The prepared transaction at shard 1 survived its primary's crash (the
  // prepare force put it on a sub-majority of backups) and resolved to
  // committed — exactly once, on both legs.
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 5);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a004"), 11);
  EXPECT_TRUE(check::CheckConservation(cluster, BankAccounts(8), 64).empty());
  for (auto g : bank.shards) {
    for (auto* c : cluster.Cohorts(g)) {
      EXPECT_TRUE(c->objects().ActiveTxns().empty())
          << "cohort " << c->mid() << " holds orphaned transactions";
    }
  }

  // The crashed shard-1 primary rejoins cleanly behind the commit.
  cluster.Recover(bank.shards[1], b_idx);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(3 * sim::kSecond);
  EXPECT_TRUE(check::CheckConservation(cluster, BankAccounts(8), 64).empty());
}

// Satellite idempotence audit: with every frame duplicated and some lost,
// retransmitted prepares race their own commits. The participant must
// answer duplicate prepares idempotently, stash commit decisions that
// arrive while a (re)transmitted prepare is mid-force, and never apply a
// commit twice — proven by exact conservation over the whole run.
TEST(CommitFusion, DuplicatedLossyNetworkKeepsFusedCommitsExactlyOnce) {
  ClusterOptions opts;
  opts.seed = 103;
  opts.net.duplicate_probability = 0.6;
  opts.net.loss_probability = 0.05;
  Cluster cluster(opts);
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 12);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 12);

  client::ShardRouter router(cluster.directory());
  sim::Rng rng(23);
  workload::DriverOptions dopts;
  dopts.total_txns = 40;
  dopts.max_inflight = 4;
  dopts.retries_per_txn = 10;
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t) {
        const int from = static_cast<int>(rng.Index(6));
        const int to = 6 + static_cast<int>(rng.Index(6));
        return workload::MakeShardedTransferTxn(
            router, workload::ShardAccountName(from),
            workload::ShardAccountName(to), 2);
      },
      dopts);
  ASSERT_TRUE(driver.Run());
  cluster.RunFor(3 * sim::kSecond);

  EXPECT_GT(driver.accounting().committed, 0u);
  EXPECT_TRUE(
      check::CheckConservation(cluster, BankAccounts(12), 1200).empty());
  for (auto g : bank.shards) {
    EXPECT_TRUE(check::CheckQuiescent(cluster, g).empty());
  }
  core::CohortStats shard_sum;
  for (auto g : bank.shards) {
    const auto s = SumStats(cluster, g);
    shard_sum.duplicate_prepares_answered += s.duplicate_prepares_answered;
    shard_sum.commits_stashed_during_prepare +=
        s.commits_stashed_during_prepare;
  }
  // The dup/loss mix must actually exercise the idempotence paths.
  EXPECT_GT(shard_sum.duplicate_prepares_answered, 0u);
}

// §3.6 sibling fallback: a prepared participant whose coordinator group is
// partitioned away AFTER the decision was made (but before its commit
// message arrived) must not stay wedged until the partition heals — the
// prepare's pset named the sibling participants, and a sibling that already
// applied the decision answers the query authoritatively.
TEST(Queries, PartitionedParticipantResolvesViaSiblings) {
  Cluster cluster(ClusterOptions{.seed = 104});
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 8);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 8);

  core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
  ASSERT_NE(coord, nullptr);

  // The fused path reports at committing-buffer time: both participants are
  // prepared and the decision is buffered at the coordinator group, but the
  // CommitMsg to shard 1 is at most in flight. Cut every coordinator<->
  // shard-1 link (both directions) right then. The network checks
  // reachability when a frame arrives, so the in-flight commit is dropped,
  // and shard 1 can neither receive a retry nor reach any coordinator
  // cohort with its queries.
  client::ShardRouter router(cluster.directory());
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  coord->SpawnTransaction(
      workload::MakeShardedTransferTxn(router, "a000", "a004", 7),
      [&](vr::TxnOutcome o) {
        outcome = o;
        done = true;
        for (auto* a : cluster.Cohorts(bank.client_group)) {
          for (auto* b : cluster.Cohorts(bank.shards[1])) {
            cluster.network().SetLinkDown(a->mid(), b->mid(), true);
          }
        }
      });
  const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMicrosecond);
  }
  ASSERT_TRUE(done);
  ASSERT_EQ(outcome, vr::TxnOutcome::kCommitted);  // fused, reported at buffer

  // Shard 0 learns the decision from the coordinator's CommitMsg;
  // shard 1's janitor queries the coordinator group (dead air), then falls
  // back to its pset sibling — shard 0 — and resolves committed. No heal.
  const sim::Time resolve_deadline = cluster.sim().Now() + 60 * sim::kSecond;
  while (cluster.sim().Now() < resolve_deadline &&
         workload::ShardedCommittedBalance(cluster, "a004") != 107) {
    cluster.RunFor(100 * sim::kMillisecond);
  }
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 93);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a004"), 107);
  EXPECT_GE(SumStats(cluster, bank.shards[1]).sibling_query_resolutions, 1u);
  for (auto* c : cluster.Cohorts(bank.shards[1])) {
    EXPECT_TRUE(c->objects().ActiveTxns().empty())
        << "cohort " << c->mid() << " still holds the prepared transaction";
  }
  cluster.network().Heal();
}

// -- one-round commit (DESIGN.md §13.6) -------------------------------------

namespace {

// A 3-replica bank holding a0 = 100 and a 3-replica client group.
struct BankWorld {
  explicit BankWorld(std::uint64_t seed) : cluster(ClusterOptions{.seed = seed}) {
    bank = cluster.AddGroup("bank", 3);
    client_g = cluster.AddGroup("client", 3);
    workload::RegisterBankProcs(cluster, bank);
    cluster.Start();
  }
  // Opens a0 with a plain call and lets its 2PC fan-out settle.
  bool Open() {
    if (!cluster.RunUntilStable()) return false;
    const bool ok = test::RunOneCall(cluster, client_g, bank, "open",
                                     "a0=100") == vr::TxnOutcome::kCommitted;
    cluster.RunFor(500 * sim::kMillisecond);
    return ok;
  }
  long long Balance() { return workload::CommittedBankTotal(cluster, bank, 1); }
  std::uint64_t FramesSent(vr::MsgType t) {
    const auto& by_type = cluster.network().stats().sent_by_type;
    const auto it = by_type.find(static_cast<std::uint16_t>(t));
    return it == by_type.end() ? 0 : it->second;
  }
  // Runs until `done` holds or `limit` of virtual time passes.
  bool RunUntil(const std::function<bool()>& done, sim::Duration limit) {
    const sim::Time deadline = cluster.sim().Now() + limit;
    while (!done() && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * sim::kMillisecond);
    }
    return done();
  }
  // Recovers every crashed cohort, waits for stable views, and reports any
  // quiescence violation in either group.
  void ExpectQuiescent() {
    for (vr::GroupId g : {bank, client_g}) {
      for (auto* c : cluster.Cohorts(g)) {
        if (c->status() == core::Status::kCrashed) c->Recover();
      }
    }
    ASSERT_TRUE(cluster.RunUntilStable());
    cluster.RunFor(2 * sim::kSecond);
    for (vr::GroupId g : {bank, client_g}) {
      for (const std::string& v : check::CheckQuiescent(cluster, g)) {
        ADD_FAILURE() << v;
      }
    }
    for (auto* c : cluster.Cohorts(bank)) {
      EXPECT_TRUE(c->objects().ActiveTxns().empty())
          << "cohort " << c->mid() << " still holds locks";
    }
  }

  Cluster cluster;
  vr::GroupId bank = 0;
  vr::GroupId client_g = 0;
};

}  // namespace

// The happy path: the deposit's one call commits it. No prepare, commit or
// done round, and the coordinator writes no record for it.
TEST(OneRoundCommit, LoneDepositCommitsWithoutPrepareOrCommit) {
  BankWorld w(110);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  ASSERT_NE(coord, nullptr);
  const std::uint64_t prepares = w.FramesSent(vr::MsgType::kPrepare);
  const std::uint64_t commits = w.FramesSent(vr::MsgType::kCommit);
  const std::uint64_t coord_records = coord->buffer().last_ts();

  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 7),
                          [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 5 * sim::kSecond));
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(coord->stats().one_round_commits, 1u);
  EXPECT_EQ(coord->stats().settle_requests_sent, 0u);
  EXPECT_EQ(w.Balance(), 107);
  w.cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(w.FramesSent(vr::MsgType::kPrepare), prepares);
  EXPECT_EQ(w.FramesSent(vr::MsgType::kCommit), commits);
  EXPECT_EQ(coord->buffer().last_ts(), coord_records);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 107);
}

// The final call's first reply is lost. Its retransmission finds the
// transaction settled and no dedup entry: the outcome table answers it, so
// the coordinator learns the decision without a settle request.
TEST(OneRoundCommit, LostReplyIsAnsweredByTheRetransmission) {
  BankWorld w(111);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  core::Cohort* bp = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(bp, nullptr);

  // Cut the coordinator-bank link as the call lands, so the reply (sent
  // after the decision force) is dropped; heal well before the
  // retransmission.
  bool cut = false;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    if (cut || static_cast<vr::MsgType>(f.type) != vr::MsgType::kCall ||
        f.to != bp->mid()) {
      return;
    }
    cut = true;
    w.cluster.network().SetLinkDown(coord->mid(), bp->mid(), true);
    w.cluster.sim().scheduler().After(10 * sim::kMillisecond, [&] {
      w.cluster.network().SetLinkDown(coord->mid(), bp->mid(), false);
    });
  });
  const std::uint64_t replies = w.FramesSent(vr::MsgType::kReply);
  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 7),
                          [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 5 * sim::kSecond));
  w.cluster.network().set_observer(nullptr);
  ASSERT_TRUE(cut);
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(w.FramesSent(vr::MsgType::kReply) - replies, 2u);
  EXPECT_EQ(coord->stats().settle_requests_sent, 0u);
  EXPECT_EQ(w.Balance(), 107);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 107);
}

// Crash matrix row 1: the bank primary runs the final call, but its batch
// reaches no backup before it crashes. The backups' new view never saw the
// call, so the settle request aborts it there.
TEST(OneRoundCommit, ParticipantCrashBeforeItsBatchLeavesSettlesAborted) {
  BankWorld w(112);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  core::Cohort* bp = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(bp, nullptr);
  for (auto* c : w.cluster.Cohorts(w.bank)) {
    if (c != bp) w.cluster.network().SetLinkDown(bp->mid(), c->mid(), true);
  }
  bool crashed = false;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    if (crashed || static_cast<vr::MsgType>(f.type) != vr::MsgType::kCall ||
        f.to != bp->mid()) {
      return;
    }
    crashed = true;
    // After the call ran and its batch left into the cut links. They heal
    // once every frame in flight has been dropped.
    w.cluster.sim().scheduler().After(0, [&] {
      EXPECT_EQ(bp->objects().ReadCommitted("a0").value_or(""), "107");
      bp->Crash();
    });
    w.cluster.sim().scheduler().After(5 * sim::kMillisecond, [&] {
      for (auto* c : w.cluster.Cohorts(w.bank)) {
        w.cluster.network().SetLinkDown(bp->mid(), c->mid(), false);
      }
    });
  });
  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 7),
                          [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 10 * sim::kSecond));
  w.cluster.network().set_observer(nullptr);
  ASSERT_TRUE(crashed);
  EXPECT_EQ(*outcome, vr::TxnOutcome::kAborted);
  EXPECT_GE(coord->stats().settle_requests_sent, 1u);
  EXPECT_EQ(w.Balance(), 100);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 100);
}

// Crash matrix row 2: one backup acknowledged the call's batch (its
// completed-call and committed records), then the bank primary crashed
// before it could reply. That backup carries the decision into the new
// view, so the settle request finds it committed.
TEST(OneRoundCommit, ParticipantCrashAfterOneBackupAckSettlesCommitted) {
  BankWorld w(113);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  core::Cohort* bp = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(bp, nullptr);
  bool called = false;
  bool crashed = false;
  std::uint64_t committed_ts = 0;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    const auto type = static_cast<vr::MsgType>(f.type);
    if (type == vr::MsgType::kCall && f.to == bp->mid()) {
      called = true;
      // Once the call ran, its committed record is the last one buffered.
      w.cluster.sim().scheduler().After(
          0, [&] { committed_ts = bp->buffer().last_ts(); });
      return;
    }
    if (!called || crashed || committed_ts == 0 ||
        type != vr::MsgType::kBufferAck || f.to != bp->mid()) {
      return;
    }
    const auto ack = vr::DecodeFrame<vr::BufferAckMsg>(f.payload);
    if (!ack || ack->ts < committed_ts) return;
    crashed = true;
    bp->Crash();  // before the ack is processed: no reply ever leaves
  });
  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 7),
                          [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 10 * sim::kSecond));
  w.cluster.network().set_observer(nullptr);
  ASSERT_TRUE(crashed);
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  EXPECT_GE(coord->stats().settle_requests_sent, 1u);
  EXPECT_EQ(w.Balance(), 107);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 107);
}

// Crash matrix row 3: the coordinator primary crashes as its final call
// lands. The bank decides alone, and the balance moves exactly once.
TEST(OneRoundCommit, CoordinatorCrashAfterTheFinalCallCommitsOnce) {
  BankWorld w(114);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  core::Cohort* bp = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(bp, nullptr);
  bool crashed = false;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    if (crashed || static_cast<vr::MsgType>(f.type) != vr::MsgType::kCall ||
        f.to != bp->mid()) {
      return;
    }
    crashed = true;
    w.cluster.sim().scheduler().After(0, [coord] { coord->Crash(); });
  });
  bool reported = false;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 7),
                          [&](vr::TxnOutcome) { reported = true; });
  ASSERT_TRUE(w.RunUntil([&] { return w.Balance() == 107; }, 5 * sim::kSecond));
  w.cluster.network().set_observer(nullptr);
  EXPECT_TRUE(crashed);
  EXPECT_FALSE(reported);  // the coordinator died with the transaction
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 107);
}

// Crash matrix row 4: the final call makes a nested call to another group.
// The bank cannot decide alone, replies undecided, and the transaction
// commits through 2PC at both groups.
TEST(OneRoundCommit, NestedCallToAnotherGroupFallsBackToTwoPhaseCommit) {
  BankWorld w(115);
  const vr::GroupId ledger = w.cluster.AddGroup("ledger", 3);
  RegisterKvProcs(w.cluster, ledger);
  w.cluster.Start(ledger);
  w.cluster.RegisterProc(
      w.bank, "deposit-logged",
      [ledger](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
        auto v = co_await ctx.ReadForUpdate("a0");
        const long long cur = v && !v->empty() ? std::stoll(*v) : 0;
        co_await ctx.Write("a0", std::to_string(cur + 7));
        co_await ctx.Call(ledger, "put", test::Bytes("log=7"));
        co_return test::Bytes("ok");
      });
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  ASSERT_NE(coord, nullptr);
  const std::uint64_t prepares = w.FramesSent(vr::MsgType::kPrepare);
  const std::uint64_t fused = coord->stats().fused_commits;

  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(
      [&w](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.FinalCall(w.bank, "deposit-logged", std::string("a0"));
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 5 * sim::kSecond));
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(coord->stats().one_round_commits, 0u);
  EXPECT_EQ(coord->stats().fused_commits - fused, 1u);
  EXPECT_EQ(w.FramesSent(vr::MsgType::kPrepare) - prepares, 2u);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 107);
  EXPECT_EQ(test::CommittedValue(w.cluster, ledger, "log"), "7");
  for (const std::string& v : check::CheckQuiescent(w.cluster, ledger)) {
    ADD_FAILURE() << v;
  }
}

// Crash matrix row 5: the transaction's first call ran at a bank primary
// whose records never reached a backup, and that primary crashed. The
// final call runs at the new primary, whose history does not know the
// first call: compatible() refuses and the bank aborts the transaction.
TEST(OneRoundCommit, EarlierCallLostInAViewChangeIsRefused) {
  BankWorld w(116);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  core::Cohort* bp = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(bp, nullptr);
  for (auto* c : w.cluster.Cohorts(w.bank)) {
    if (c != bp) w.cluster.network().SetLinkDown(bp->mid(), c->mid(), true);
  }
  bool crashed = false;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    if (crashed || static_cast<vr::MsgType>(f.type) != vr::MsgType::kReply ||
        f.from != bp->mid()) {
      return;
    }
    crashed = true;
    w.cluster.sim().scheduler().After(0, [&] { bp->Crash(); });
    w.cluster.sim().scheduler().After(5 * sim::kMillisecond, [&] {
      for (auto* c : w.cluster.Cohorts(w.bank)) {
        w.cluster.network().SetLinkDown(bp->mid(), c->mid(), false);
      }
    });
  });
  sim::Scheduler* sched = &w.cluster.sim().scheduler();
  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(
      [&w, sched](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(w.bank, "deposit", std::string("a0=1"));
        co_await sim::Sleep(*sched, 3 * sim::kSecond);
        co_await h.FinalCall(w.bank, "deposit", std::string("a0=2"));
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  // The backups form a view without the first call's record.
  ASSERT_TRUE(w.RunUntil(
      [&] {
        core::Cohort* p = w.cluster.AnyPrimary(w.bank);
        return crashed && p != nullptr && p != bp;
      },
      3 * sim::kSecond));
  w.cluster.network().set_observer(nullptr);
  // A second transaction finds the old primary dead, which sends the
  // coordinator to the new view for the final call.
  EXPECT_EQ(test::RunOneCall(w.cluster, w.client_g, w.bank, "balance", "a0"),
            vr::TxnOutcome::kAborted);
  ASSERT_FALSE(outcome.has_value());
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 10 * sim::kSecond));
  EXPECT_EQ(*outcome, vr::TxnOutcome::kAborted);
  std::uint64_t refused = 0;
  for (auto* c : w.cluster.Cohorts(w.bank)) refused += c->stats().prepares_refused;
  EXPECT_GE(refused, 1u);
  EXPECT_EQ(coord->stats().settle_requests_sent, 0u);
  EXPECT_EQ(w.Balance(), 100);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 100);
}

// The outcome table stores runs of seqs (DESIGN.md §15): each coordinator
// view's one-round deposits are one run, so the gstate that the bank's next
// newview record ships does not grow with the number of deposits decided.
TEST(OneRoundCommit, NewViewGstateDoesNotGrowWithDeposits) {
  const auto newview_gstate_bytes = [](int deposits) -> std::size_t {
    BankWorld w(120);
    if (!w.Open()) return 0;
    core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
    for (int i = 0; i < deposits; ++i) {
      // Depositing 0 keeps the balance, and with it the store image's size.
      std::optional<vr::TxnOutcome> outcome;
      coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 0),
                              [&](vr::TxnOutcome o) { outcome = o; });
      if (!w.RunUntil([&] { return outcome.has_value(); }, 5 * sim::kSecond) ||
          *outcome != vr::TxnOutcome::kCommitted) {
        return 0;
      }
    }
    std::size_t bytes = 0;
    w.cluster.network().set_observer([&](const net::Frame& f) {
      if (static_cast<vr::MsgType>(f.type) != vr::MsgType::kBufferBatch) return;
      const auto batch = vr::DecodeFrame<vr::BufferBatchMsg>(f.payload);
      if (!batch) return;
      for (const vr::EventRecord& e : batch->events) {
        if (e.type == vr::EventType::kNewView) bytes = e.gstate.size();
      }
    });
    w.cluster.AnyPrimary(w.bank)->Crash();
    w.RunUntil([&] { return bytes > 0; }, 5 * sim::kSecond);
    w.cluster.network().set_observer(nullptr);
    return bytes;
  };
  const std::size_t after_few = newview_gstate_bytes(20);
  ASSERT_GT(after_few, 0u);
  EXPECT_EQ(newview_gstate_bytes(2000), after_few);
}

// Crash matrix row 6: a delayed duplicate of a committed transaction's
// final call arrives after a later deposit. It is answered from the outcome
// table and runs nowhere.
TEST(OneRoundCommit, DelayedDuplicateOfTheFinalCallDoesNotRunAgain) {
  BankWorld w(117);
  ASSERT_TRUE(w.Open());
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  core::Cohort* bp = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(bp, nullptr);
  std::optional<net::Frame> final_call;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    if (!final_call && static_cast<vr::MsgType>(f.type) == vr::MsgType::kCall) {
      final_call = f;
    }
  });
  std::optional<vr::TxnOutcome> first;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 7),
                          [&](vr::TxnOutcome o) { first = o; });
  ASSERT_TRUE(w.RunUntil([&] { return first.has_value(); }, 5 * sim::kSecond));
  w.cluster.network().set_observer(nullptr);
  ASSERT_TRUE(final_call.has_value());
  EXPECT_EQ(*first, vr::TxnOutcome::kCommitted);
  std::optional<vr::TxnOutcome> second;
  coord->SpawnTransaction(workload::MakeDepositTxn(w.bank, "a0", 5),
                          [&](vr::TxnOutcome o) { second = o; });
  ASSERT_TRUE(w.RunUntil([&] { return second.has_value(); }, 5 * sim::kSecond));
  EXPECT_EQ(*second, vr::TxnOutcome::kCommitted);
  w.cluster.RunFor(500 * sim::kMillisecond);

  const std::uint64_t executed = bp->stats().calls_executed;
  const std::uint64_t replies = w.FramesSent(vr::MsgType::kReply);
  w.cluster.network().Send(final_call->from, final_call->to, final_call->type,
                           final_call->payload);
  w.cluster.RunFor(3 * sim::kSecond);  // well past core::kIdleTxnTimeout
  EXPECT_EQ(bp->stats().calls_executed, executed);
  EXPECT_EQ(w.FramesSent(vr::MsgType::kReply) - replies, 1u);  // answered
  EXPECT_EQ(w.Balance(), 112);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 112);
}

// Conflicting one-round transfers inside one bank, its primary crashed
// three times. A commit releases its locks and wakes a waiter in the same
// instant, and the waiter may decide in that instant too. Its records must
// come after the commit it read from: were they buffered first, its force
// could complete while a crash drops the earlier commit, and the bank
// would keep a transfer built on a transfer it then aborts.
TEST(OneRoundCommit, TransfersConserveMoneyAcrossBankPrimaryCrashes) {
  for (std::uint64_t seed : {8006u, 8007u}) {
    BankWorld w(seed);
    ASSERT_TRUE(w.cluster.RunUntilStable());
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(test::RunOneCall(w.cluster, w.client_g, w.bank, "open",
                                 "a" + std::to_string(i) + "=1000"),
                vr::TxnOutcome::kCommitted);
    }
    for (int c = 0; c < 3; ++c) {
      w.cluster.sim().scheduler().After(
          (500 + static_cast<sim::Duration>(c) * 2500) * sim::kMillisecond,
          [&w] {
            auto cohorts = w.cluster.Cohorts(w.bank);
            for (auto* p : cohorts) {
              if (!p->IsActivePrimary()) continue;
              // Recover the previous victim first, so a majority of
              // up-to-date cohorts remains.
              for (auto* c : cohorts) {
                if (c->status() == core::Status::kCrashed) c->Recover();
              }
              p->Crash();
              return;
            }
          });
    }
    sim::Rng rng(seed);
    workload::ClosedLoopDriver driver(
        w.cluster, w.client_g,
        [&](std::uint64_t i) {
          const int from = static_cast<int>(i % 4);
          const int to = (from + 1 + static_cast<int>(rng.Index(3))) % 4;
          return workload::MakeTransferTxn(w.bank, "a" + std::to_string(from),
                                           w.bank, "a" + std::to_string(to), 1);
        },
        workload::DriverOptions{.total_txns = 200,
                                .max_inflight = 2,
                                .deadline = 120 * sim::kSecond});
    driver.Run();
    EXPECT_GT(driver.accounting().committed, 0u) << "seed " << seed;
    EXPECT_EQ(driver.accounting().unknown, 0u) << "seed " << seed;
    w.ExpectQuiescent();
    EXPECT_EQ(workload::CommittedBankTotal(w.cluster, w.bank, 4), 4000)
        << "seed " << seed;
  }
}

// Crash matrix row 7: a group calls itself with a final call. It writes no
// committing or done record as coordinator, so its committed outcome is
// never erased and a late duplicate of the call is still refused (the hole
// DESIGN.md §15 names for the 2PC path is closed on this one).
TEST(OneRoundCommit, SelfCallKeepsItsOutcomeAndRefusesALateDuplicate) {
  Cluster cluster(ClusterOptions{.seed = 118});
  auto kv = cluster.AddGroup("kv", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  core::Cohort* primary = cluster.AnyPrimary(kv);
  ASSERT_NE(primary, nullptr);

  std::optional<net::Frame> final_call;
  cluster.network().set_observer([&](const net::Frame& f) {
    if (!final_call && static_cast<vr::MsgType>(f.type) == vr::MsgType::kCall) {
      final_call = f;
    }
  });
  vr::Aid aid;
  std::optional<vr::TxnOutcome> outcome;
  primary->SpawnTransaction(
      [kv, &aid](core::TxnHandle& h) -> sim::Task<bool> {
        aid = h.aid();
        co_await h.FinalCall(kv, "put", std::string("x=1"));
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  const sim::Time deadline = cluster.sim().Now() + 5 * sim::kSecond;
  while (!outcome && cluster.sim().Now() < deadline) {
    cluster.RunFor(1 * sim::kMillisecond);
  }
  cluster.network().set_observer(nullptr);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(final_call.has_value());
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  ASSERT_EQ(test::RunOneCall(cluster, kv, kv, "put", "x=2"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(1 * sim::kSecond);
  for (auto* c : cluster.Cohorts(kv)) {
    EXPECT_EQ(c->outcomes().Lookup(aid), vr::TxnOutcome::kCommitted)
        << "cohort " << c->mid();
  }

  cluster.network().Send(final_call->from, final_call->to, final_call->type,
                         final_call->payload);
  cluster.RunFor(3 * sim::kSecond);  // well past core::kIdleTxnTimeout
  EXPECT_EQ(test::CommittedValue(cluster, kv, "x"), "2");
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

// -- outcome queries reach the primary (DESIGN.md §13.7, §16.1) -------------

// A blocked participant asks the coordinator group's primary, wherever it
// sits in the configuration. The client group's first member crashes and
// rejoins as a backup, so the primary is another member; the coordinator
// buffers the decision and never sends the commit. The bank's janitor
// resolves the prepared deposit with one query, not one per member in
// configuration order.
TEST(Queries, BlockedParticipantAsksOnlyTheCoordinatorPrimary) {
  BankWorld w(120);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  w.cluster.Crash(w.client_g, 0);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  w.cluster.Recover(w.client_g, 0);
  ASSERT_TRUE(w.Open());
  core::Cohort* first = w.cluster.Cohorts(w.client_g)[0];
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  ASSERT_NE(coord, nullptr);
  ASSERT_NE(coord, first);
  ASSERT_EQ(first->status(), core::Status::kActive);
  coord->mutable_options().commit_attempts = 0;
  const core::CohortStats before = SumStats(w.cluster, w.bank);

  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(
      [bank = w.bank](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(bank, "deposit", std::string("a0=7"));
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); }, 5 * sim::kSecond));
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  ASSERT_TRUE(w.RunUntil([&] { return w.Balance() == 107; }, 5 * sim::kSecond));
  const core::CohortStats after = SumStats(w.cluster, w.bank);
  EXPECT_EQ(after.queries_sent - before.queries_sent, 1u);
  EXPECT_EQ(after.queries_resolved - before.queries_resolved, 1u);
  w.ExpectQuiescent();
  EXPECT_EQ(w.Balance(), 107);
}

namespace {

// Collects query replies sent to a raw test mid.
struct QueryReplyCapture : net::FrameHandler {
  std::vector<vr::QueryReplyMsg> replies;
  void OnFrame(const net::Frame& f) override {
    if (static_cast<vr::MsgType>(f.type) != vr::MsgType::kQueryReply) return;
    if (auto m = vr::DecodeFrame<vr::QueryReplyMsg>(f.payload)) {
      replies.push_back(std::move(*m));
    }
  }
};

}  // namespace

// Only the active primary answers a query (DESIGN.md §13.7 rule 1). A
// backup answers with the wrong-primary hint every other request gets: its
// view, which names the primary.
TEST(Queries, BackupRedirectsAQueryToItsPrimary) {
  BankWorld w(121);
  ASSERT_TRUE(w.Open());
  core::Cohort* primary = w.cluster.AnyPrimary(w.bank);
  ASSERT_NE(primary, nullptr);
  core::Cohort* backup = nullptr;
  for (auto* c : w.cluster.Cohorts(w.bank)) {
    if (c != primary) backup = c;
  }
  ASSERT_NE(backup, nullptr);
  ASSERT_EQ(backup->status(), core::Status::kActive);

  QueryReplyCapture capture;
  const vr::Mid test_mid = w.cluster.AllocateMid();
  w.cluster.network().Register(test_mid, &capture);
  vr::QueryMsg q;
  q.aid = vr::Aid{w.client_g, primary->cur_viewid(), 999};
  q.reply_to = test_mid;
  w.cluster.network().Send(test_mid, backup->mid(),
                           static_cast<std::uint16_t>(vr::MsgType::kQuery),
                           vr::EncodeMsg(q));
  ASSERT_TRUE(w.RunUntil([&] { return !capture.replies.empty(); },
                         100 * sim::kMillisecond));
  const vr::QueryReplyMsg& r = capture.replies.front();
  EXPECT_EQ(r.aid, q.aid);
  EXPECT_TRUE(core::Redirected(r));
  EXPECT_EQ(r.outcome, vr::TxnOutcome::kUnknown);
  ASSERT_TRUE(r.view_known);
  EXPECT_EQ(r.new_viewid, backup->cur_viewid());
  EXPECT_EQ(r.new_view.primary, primary->mid());
  w.cluster.network().Unregister(test_mid);
}

// An active primary answers a query only from a stable outcome (DESIGN.md
// §13.7 rule 1), so it forces its buffer tail before it answers committed or
// aborted. Cut off from its backups, the primary takes an abort whose record
// cannot be forced: a next view need not hold it, and may commit the
// transaction. The query must hear kUnknown, not kAborted.
TEST(Queries, PrimaryDoesNotAnswerFromAnUnforcedAbort) {
  BankWorld w(122);
  ASSERT_TRUE(w.Open());
  core::Cohort* primary = w.cluster.AnyPrimary(w.bank);
  core::Cohort* coord = w.cluster.AnyPrimary(w.client_g);
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(coord, nullptr);
  for (auto* c : w.cluster.Cohorts(w.bank)) {
    if (c != primary) {
      w.cluster.network().SetLinkDown(primary->mid(), c->mid(), true);
    }
  }

  QueryReplyCapture capture;
  const vr::Mid test_mid = w.cluster.AllocateMid();
  w.cluster.network().Register(test_mid, &capture);
  const vr::Aid aid{w.client_g, coord->cur_viewid(), 999};
  vr::AbortMsg abort;
  abort.group = w.bank;
  abort.aid = aid;
  w.cluster.network().Send(test_mid, primary->mid(),
                           static_cast<std::uint16_t>(vr::MsgType::kAbort),
                           vr::EncodeMsg(abort));
  ASSERT_TRUE(w.RunUntil(
      [&] {
        return primary->outcomes().Lookup(aid) == vr::TxnOutcome::kAborted;
      },
      100 * sim::kMillisecond));
  // The abort record sits in the tail unforced while the query arrives.
  ASSERT_TRUE(primary->IsActivePrimary());
  vr::QueryMsg q;
  q.aid = aid;
  q.reply_to = test_mid;
  w.cluster.network().Send(test_mid, primary->mid(),
                           static_cast<std::uint16_t>(vr::MsgType::kQuery),
                           vr::EncodeMsg(q));
  ASSERT_TRUE(w.RunUntil([&] { return !capture.replies.empty(); },
                         2 * sim::kSecond));
  const vr::QueryReplyMsg& r = capture.replies.front();
  EXPECT_EQ(r.aid, aid);
  EXPECT_FALSE(core::Redirected(r));
  EXPECT_EQ(r.outcome, vr::TxnOutcome::kUnknown);
  w.cluster.network().Unregister(test_mid);
}

// -- backup read leases (DESIGN.md §14) -------------------------------------

namespace {

// Collects backup-read replies sent to a raw test mid.
struct ReadReplyCapture : net::FrameHandler {
  std::vector<vr::BackupReadReplyMsg> replies;
  void OnFrame(const net::Frame& f) override {
    if (static_cast<vr::MsgType>(f.type) != vr::MsgType::kBackupReadReply) {
      return;
    }
    wire::Reader r(f.payload);
    auto m = vr::BackupReadReplyMsg::Decode(r);
    if (r.ok()) replies.push_back(std::move(m));
  }
};

std::optional<vr::BackupReadReplyMsg> OneDirectRead(
    Cluster& cluster, ReadReplyCapture& capture, vr::Mid from, vr::Mid to,
    vr::GroupId group, const std::string& uid, vr::Viewstamp horizon = {}) {
  static std::uint64_t corr = 50000;
  vr::BackupReadMsg m;
  m.group = group;
  m.uid = uid;
  m.horizon = horizon;
  m.corr = ++corr;
  m.reply_to = from;
  cluster.network().Send(from, to,
                         static_cast<std::uint16_t>(vr::MsgType::kBackupRead),
                         vr::EncodeMsg(m));
  const sim::Time deadline = cluster.sim().Now() + 1 * sim::kSecond;
  while (cluster.sim().Now() < deadline) {
    cluster.RunFor(1 * sim::kMillisecond);
    for (auto& r : capture.replies) {
      if (r.corr == m.corr) return r;
    }
  }
  return std::nullopt;
}

}  // namespace

// The revocation race: a backup partitioned away with a still-valid 60s
// lease keeps serving the OLD view's committed state (safe — those values
// survive every view formation by the lease admission rule), but it must
// REFUSE any session that has already observed the new view, no matter how
// much lease timer remains. The lease is pinned to the viewstamp's view;
// view formation revokes it crashed-equivalent, and a straggler that never
// heard about the new view is protected by the same pin.
TEST(Leases, StaleLeaseNeverServesASessionFromTheFuture) {
  ClusterOptions opts;
  opts.seed = 105;
  opts.cohort.backup_reads = true;
  // Long lease: with the default 60ms lease the refusals below would also
  // be explainable by timer expiry. At 60s only the view pin can refuse.
  opts.cohort.read_lease_duration = 60 * sim::kSecond;
  Cluster cluster(opts);
  // Five kv replicas: after isolating the straggler and crashing the old
  // primary, the remaining three are still a majority and form a new view.
  auto kv = cluster.AddGroup("kv", 5);
  auto agents = cluster.AddGroup("agents", 3);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  // Two writes: the second's acks renew the lease with a stable watermark
  // covering the first's commit record. The 60s lease renews every 7.5
  // simulated seconds (duration/8), so space them past that interval.
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "put", "x=old"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(8 * sim::kSecond);
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "put", "pad=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(20 * sim::kMillisecond);

  ReadReplyCapture capture;
  const vr::Mid test_mid = cluster.AllocateMid();
  cluster.network().Register(test_mid, &capture);

  core::Cohort* old_primary = cluster.AnyPrimary(kv);
  ASSERT_NE(old_primary, nullptr);
  const vr::ViewId old_view = old_primary->cur_viewid();
  std::size_t primary_idx = 0;
  core::Cohort* straggler = nullptr;
  for (std::size_t i = 0; i < 5; ++i) {
    core::Cohort* c = &cluster.CohortAt(kv, i);
    if (c == old_primary) {
      primary_idx = i;
    } else if (straggler == nullptr) {
      straggler = c;
    }
  }
  ASSERT_NE(straggler, nullptr);
  auto before =
      OneDirectRead(cluster, capture, test_mid, straggler->mid(), kv, "x");
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->status, vr::ReadStatus::kOk);  // lease live in old view

  // Isolate the lease-holding straggler from its group and the agents (the
  // test mid keeps its links, so we can still probe it), and keep it from
  // churning into view formation on its own.
  straggler->mutable_options().liveness_timeout = 600 * sim::kSecond;
  for (auto* c : cluster.Cohorts(kv)) {
    if (c != straggler) {
      cluster.network().SetLinkDown(straggler->mid(), c->mid(), true);
    }
  }
  for (auto* c : cluster.Cohorts(agents)) {
    cluster.network().SetLinkDown(straggler->mid(), c->mid(), true);
  }

  // Crash the primary for good: the three connected replicas form a new
  // view the straggler never hears about, and commit a newer x there.
  cluster.Crash(kv, primary_idx);
  core::Cohort* new_primary = nullptr;
  const sim::Time deadline = cluster.sim().Now() + 30 * sim::kSecond;
  while (cluster.sim().Now() < deadline) {
    cluster.RunFor(100 * sim::kMillisecond);
    new_primary = cluster.AnyPrimary(kv);
    if (new_primary != nullptr && new_primary != straggler &&
        new_primary->cur_viewid() > old_view) {
      break;
    }
    new_primary = nullptr;
  }
  ASSERT_NE(new_primary, nullptr);
  ASSERT_EQ(test::RunOneCallWithRetry(cluster, agents, kv, "put", "x=new"),
            vr::TxnOutcome::kCommitted);

  // A session reads x at the new primary and observes the new view.
  auto at_new = OneDirectRead(cluster, capture, test_mid, new_primary->mid(),
                              kv, "x");
  ASSERT_TRUE(at_new.has_value());
  ASSERT_EQ(at_new->status, vr::ReadStatus::kOk);
  ASSERT_EQ(std::string(at_new->value.begin(), at_new->value.end()), "new");
  ASSERT_GT(at_new->served_vs.view, old_view);

  // That session now asks the straggler. Its lease has ~50 simulated
  // seconds of timer left — and it must still refuse: the horizon's view
  // is beyond the view its lease pins, so serving could hand the session
  // the overwritten value.
  auto stale = OneDirectRead(cluster, capture, test_mid, straggler->mid(), kv,
                             "x", at_new->served_vs);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->status, vr::ReadStatus::kTooNew);

  // A fresh session (empty horizon) is still served the OLD committed value
  // under the old-view lease — legal (serializable before the new write)
  // and exactly why leases need no synchronous revocation round.
  auto fresh = OneDirectRead(cluster, capture, test_mid, straggler->mid(), kv,
                             "x");
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->status, vr::ReadStatus::kOk);
  EXPECT_EQ(std::string(fresh->value.begin(), fresh->value.end()), "old");
  EXPECT_EQ(fresh->served_vs.view, old_view);

  // Heal: the straggler adopts the new view (revoking the old lease), gets
  // a fresh grant from the catch-up ack traffic, and serves the new value
  // to the future session.
  for (auto* c : cluster.Cohorts(kv)) {
    if (c != straggler) {
      cluster.network().SetLinkDown(straggler->mid(), c->mid(), false);
    }
  }
  for (auto* c : cluster.Cohorts(agents)) {
    cluster.network().SetLinkDown(straggler->mid(), c->mid(), false);
  }
  ASSERT_TRUE(cluster.RunUntilStable());
  std::optional<vr::BackupReadReplyMsg> healed;
  const sim::Time heal_deadline = cluster.sim().Now() + 20 * sim::kSecond;
  while (cluster.sim().Now() < heal_deadline) {
    healed = OneDirectRead(cluster, capture, test_mid, straggler->mid(), kv,
                           "x", at_new->served_vs);
    if (healed && healed->status == vr::ReadStatus::kOk) break;
    cluster.RunFor(500 * sim::kMillisecond);
  }
  ASSERT_TRUE(healed.has_value());
  ASSERT_EQ(healed->status, vr::ReadStatus::kOk);
  EXPECT_EQ(std::string(healed->value.begin(), healed->value.end()), "new");
  EXPECT_GT(healed->served_vs.view, old_view);
}

// -- atomicity across view changes (DESIGN.md §13.7) ------------------------

namespace {

// Two 3-replica bank shards (g0 owns a000, g1 owns a005) and a client
// group, on the serial commit ladder with a fixed link delay so each
// interleaving below is exact.
struct XferWorld {
  explicit XferWorld(std::uint64_t seed) : cluster(Options(seed)) {
    bank = workload::SetupShardedBank(cluster, 2, 3, 10);
    cluster.Start();
  }
  static ClusterOptions Options(std::uint64_t seed) {
    ClusterOptions o;
    o.seed = seed;
    o.net.delay_min = o.net.delay_max = 300 * sim::kMicrosecond;
    o.cohort.commit_fusion = false;
    return o;
  }
  bool Fund() {
    if (!cluster.RunUntilStable()) return false;
    const bool ok = workload::FundShardedAccounts(cluster, bank, 100) == 10;
    cluster.RunFor(500 * sim::kMillisecond);
    return ok;
  }
  // Cuts (or restores) every link between `a` and the cohorts of `g`.
  void Cut(core::Cohort* a, vr::GroupId g, bool down = true) {
    for (auto* c : cluster.Cohorts(g)) {
      if (c != a) cluster.network().SetLinkDown(a->mid(), c->mid(), down);
    }
  }
  bool RunUntil(const std::function<bool()>& done, sim::Duration limit) {
    const sim::Time deadline = cluster.sim().Now() + limit;
    while (!done() && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * sim::kMillisecond);
    }
    return done();
  }
  // Heals everything, recovers every crashed cohort and lets every
  // transaction settle.
  void Settle() {
    cluster.network().set_observer(nullptr);
    cluster.network().Heal();
    for (auto g : cluster.AllGroups()) {
      for (auto* c : cluster.Cohorts(g)) {
        for (auto* d : cluster.Cohorts(g)) {
          cluster.network().SetLinkDown(c->mid(), d->mid(), false);
        }
        for (auto h : cluster.AllGroups()) Cut(c, h, false);
        if (c->status() == core::Status::kCrashed) c->Recover();
      }
    }
    ASSERT_TRUE(cluster.RunUntilStable());
    cluster.RunFor(5 * sim::kSecond);
  }
  long long Balance(const std::string& account) {
    return workload::ShardedCommittedBalance(cluster, account);
  }

  Cluster cluster;
  workload::ShardedBank bank;
};

}  // namespace

// §3.4 queries are answered only from stable outcomes. Shard 0's primary
// runs the withdrawal and streams its records to one backup, whose ack is
// cut off with the primary. The prepare reaches the cut-off primary, which
// cannot force it, refuses, and records an abort that never replicates;
// the refusal is lost with the coordinator link. Shard 1 prepares, loses
// the coordinator, and asks its sibling shard 0, starting at the deposed
// primary. The coordinator's retry prepares at shard 0's next primary,
// which has the call, and commits. The deposed primary must not answer the
// sibling query "aborted" from its unreplicated record: shard 1 would abort
// what shard 0 commits.
TEST(Atomicity, DeposedPrimaryDoesNotAnswerFromAnUnforcedAbort) {
  XferWorld w(431);
  ASSERT_TRUE(w.Fund());
  const vr::GroupId g0 = w.bank.shards[0];
  const vr::GroupId g1 = w.bank.shards[1];
  const vr::GroupId cg = w.bank.client_group;
  core::Cohort* a0 = w.cluster.AnyPrimary(g0);
  core::Cohort* coord = w.cluster.AnyPrimary(cg);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(coord, nullptr);
  // Shard 0's cohorts answer shard 1's probe in configuration order, so
  // shard 1 caches the deposed primary and asks it first.
  ASSERT_EQ(a0, w.cluster.Cohorts(g0)[0]);
  // The deposed primary's failure detector waits out the test: it stays in
  // its view until its force fails, so shard 1 can reach it, and it holds
  // the unforced abort when shard 1 asks again.
  a0->mutable_options().liveness_timeout = 100 * sim::kSecond;

  std::optional<vr::Aid> aid;
  bool records_out = false, prepare_in = false, b_prepared = false;
  bool asked_after_refusal = false;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    const auto type = static_cast<vr::MsgType>(f.type);
    if (type == vr::MsgType::kQuery && f.to == a0->mid() &&
        a0->stats().prepares_refused > 0) {
      asked_after_refusal = true;
    }
    if (!aid && type == vr::MsgType::kCall && f.to == a0->mid()) {
      if (auto m = vr::DecodeFrame<vr::CallMsg>(f.payload)) aid = m->sub_aid.aid;
    } else if (aid && !records_out && type == vr::MsgType::kBufferBatch &&
               f.from == a0->mid()) {
      auto m = vr::DecodeFrame<vr::BufferBatchMsg>(f.payload);
      for (const vr::EventRecord& e : m->events) {
        if (e.sub_aid.aid == *aid) records_out = true;
      }
      // This backup holds the call; its ack, and everything after, is lost.
      if (records_out) w.Cut(a0, g0);
    } else if (records_out && !prepare_in && type == vr::MsgType::kPrepare &&
               f.to == a0->mid()) {
      prepare_in = true;
      w.Cut(a0, cg);  // the refusal never reaches the coordinator
    } else if (prepare_in && !b_prepared &&
               type == vr::MsgType::kPrepareReply && f.to == coord->mid()) {
      auto m = vr::DecodeFrame<vr::PrepareReplyMsg>(f.payload);
      if (m->from_group != g1) return;
      b_prepared = true;
      for (auto* b : w.cluster.Cohorts(g1)) w.Cut(b, cg);
    }
  });

  std::optional<vr::TxnOutcome> outcome;
  coord->SpawnTransaction(
      [g0, g1](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(g0, "withdraw", std::string("a000=5"));
        co_await h.Call(g1, "deposit", std::string("a005=5"));
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); },
                         10 * sim::kSecond));
  ASSERT_TRUE(records_out && prepare_in && b_prepared);
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  // Shard 1 resolves through its sibling without any heal.
  ASSERT_TRUE(w.RunUntil([&] { return w.Balance("a005") != 100; },
                         10 * sim::kSecond));
  EXPECT_EQ(w.Balance("a005"), 105);
  EXPECT_GE(a0->stats().prepares_refused, 1u);
  // The sibling query reached the deposed primary while it held the abort.
  EXPECT_TRUE(asked_after_refusal);
  EXPECT_NE(a0->status(), core::Status::kActive);
  w.Settle();
  EXPECT_EQ(w.Balance("a000"), 95);
  EXPECT_EQ(w.Balance("a005"), 105);
}

// §3.1: a coordinator view change aborts the transactions in flight. The
// coordinator's primary is cut off mid-prepare and left out of the next
// view, whose primary answers shard 0's query with the presumed abort. The
// old primary becomes primary again in a later view while the transaction
// is still waiting for shard 1's vote; it must abort, not commit.
TEST(Atomicity, CoordinatorCommitsOnlyInTheViewItsTransactionBegan) {
  XferWorld w(432);
  ASSERT_TRUE(w.Fund());
  const vr::GroupId g0 = w.bank.shards[0];
  const vr::GroupId g1 = w.bank.shards[1];
  const vr::GroupId cg = w.bank.client_group;
  auto coords = w.cluster.Cohorts(cg);
  core::Cohort* c0 = w.cluster.AnyPrimary(cg);
  ASSERT_EQ(c0, coords[0]);
  core::Cohort* b0 = w.cluster.AnyPrimary(g1);
  ASSERT_NE(b0, nullptr);
  const vr::ViewId began_in = c0->cur_viewid();

  bool a_prepared = false, restored = false, b_prepare_in = false;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    const auto type = static_cast<vr::MsgType>(f.type);
    if (restored && type == vr::MsgType::kPrepare && f.to == b0->mid()) {
      b_prepare_in = true;
      return;
    }
    if (a_prepared || type != vr::MsgType::kPrepareReply || f.to != c0->mid()) {
      return;
    }
    auto m = vr::DecodeFrame<vr::PrepareReplyMsg>(f.payload);
    if (m->from_group != g0) return;
    a_prepared = true;
    // Cut the coordinator off from its group and from shard 0 once shard 0
    // has voted yes.
    w.Cut(c0, cg);
    w.Cut(c0, g0);
  });

  std::optional<vr::TxnOutcome> outcome;
  net::Network* net = &w.cluster.network();
  c0->SpawnTransaction(
      [g0, g1, net, c0, b0](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(g0, "withdraw", std::string("a000=5"));
        co_await h.Call(g1, "deposit", std::string("a005=5"));
        // Shard 1's primary never hears the prepare until it is restored.
        net->SetLinkDown(c0->mid(), b0->mid(), true);
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });

  ASSERT_TRUE(w.RunUntil([&] { return a_prepared; }, 1 * sim::kSecond));
  // The next view's primary presumes the transaction aborted, and shard 0
  // aborts it on that answer.
  core::Cohort* a0 = w.cluster.AnyPrimary(g0);
  ASSERT_TRUE(w.RunUntil([&] { return a0->objects().ActiveTxns().empty(); },
                         5 * sim::kSecond));
  core::Cohort* c1 = w.cluster.AnyPrimary(cg);
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c1, c0);
  // The old primary rejoins as a backup, then becomes primary again when
  // the view's primary crashes.
  w.Cut(c0, cg, false);
  ASSERT_TRUE(w.RunUntil([&] {
    return c0->status() == core::Status::kActive && c1->IsActivePrimary() &&
           c1->cur_view().Contains(c0->mid());
  }, 5 * sim::kSecond));
  c1->Crash();
  ASSERT_TRUE(w.RunUntil([&] { return c0->IsActivePrimary(); },
                         5 * sim::kSecond));
  ASSERT_FALSE(outcome.has_value());
  ASSERT_NE(c0->cur_viewid(), began_in);
  net->SetLinkDown(c0->mid(), b0->mid(), false);
  restored = true;

  ASSERT_TRUE(w.RunUntil([&] { return outcome.has_value(); },
                         10 * sim::kSecond));
  // Shard 1 heard a prepare retry after the restore, so the abort is the
  // §3.1 view check's, not the prepare attempts running out.
  ASSERT_TRUE(b_prepare_in);
  EXPECT_EQ(*outcome, vr::TxnOutcome::kAborted);
  w.Settle();
  EXPECT_EQ(w.Balance("a000"), 100);
  EXPECT_EQ(w.Balance("a005"), 100);
}

}  // namespace
}  // namespace vsr
