// Sharding tests (DESIGN.md §11): placement directory semantics, client
// routing, the cross-group shard pull primitive, the gated sharded bank
// with real cross-shard 2PC, and live rebalancing under traffic and faults
// — including the zero-lost/zero-duplicated commit check.
#include <gtest/gtest.h>

#include <map>

#include "check/invariants.h"
#include "client/shard_rebalancer.h"
#include "client/shard_router.h"
#include "tests/test_util.h"
#include "wire/buffer.h"
#include "workload/driver.h"
#include "workload/failures.h"
#include "workload/sharded_bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using workload::ShardAccountName;

// -- directory ------------------------------------------------------------

TEST(Directory, ReRegistrationGuards) {
  core::Directory dir;
  dir.RegisterGroup(1, {1, 2, 3});
  EXPECT_EQ(dir.GroupEpoch(1), 1u);
  // Idempotent for the identical configuration.
  dir.RegisterGroup(1, {1, 2, 3});
  EXPECT_EQ(dir.GroupEpoch(1), 1u);
  // A different configuration must not silently clobber the entry.
  EXPECT_THROW(dir.RegisterGroup(1, {4, 5, 6}), std::logic_error);
  ASSERT_NE(dir.Lookup(1), nullptr);
  EXPECT_EQ((*dir.Lookup(1))[0], 1u);
  // The deliberate path replaces and bumps the epoch.
  EXPECT_EQ(dir.ReRegisterGroup(1, {4, 5, 6}), 2u);
  EXPECT_EQ((*dir.Lookup(1))[0], 4u);
}

TEST(Directory, RangesMustTileTheKeySpace) {
  core::Directory dir;
  dir.RegisterGroup(1, {1});
  dir.RegisterGroup(2, {2});
  EXPECT_THROW(dir.AssignRange("b", "m", 1), std::logic_error);  // no "" start
  EXPECT_THROW(dir.AssignRange("", "m", 7), std::logic_error);   // unknown grp
  EXPECT_EQ(dir.AssignRange("", "m", 1), 1u);
  EXPECT_THROW(dir.AssignRange("n", "", 2), std::logic_error);  // gap at "m"
  EXPECT_EQ(dir.AssignRange("m", "", 2), 2u);
  EXPECT_THROW(dir.AssignRange("z", "", 2), std::logic_error);  // already inf

  ASSERT_NE(dir.Route("a"), nullptr);
  EXPECT_EQ(dir.Route("a")->owner, 1u);
  EXPECT_EQ(dir.Route("m")->owner, 2u);
  EXPECT_EQ(dir.Route("zzz")->owner, 2u);
  EXPECT_TRUE(check::CheckPlacement(dir).empty());
}

TEST(Directory, MoveLifecycleSplitsAndFlipsAtomically) {
  core::Directory dir;
  dir.RegisterGroup(1, {1});
  dir.RegisterGroup(2, {2});
  dir.AssignRange("", "", 1);
  const std::uint64_t e0 = dir.placement_epoch();

  // BeginMove splits ["d","k") out of the settled universe range.
  EXPECT_GT(dir.BeginMove("d", "k", 2), e0);
  ASSERT_EQ(dir.ranges().size(), 3u);
  EXPECT_TRUE(check::CheckPlacement(dir).empty());
  const core::ShardRange* r = dir.Route("f");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->owner, 1u);  // old owner serves while migrating
  EXPECT_EQ(r->state, core::ShardState::kMigrating);
  EXPECT_EQ(r->moving_to, 2u);

  EXPECT_THROW(dir.CommitMove("d", "k"), std::logic_error);  // not in handoff
  dir.BeginHandoff("d", "k");
  EXPECT_EQ(dir.Route("f")->state, core::ShardState::kHandoff);

  const std::uint64_t before = dir.placement_epoch();
  EXPECT_GT(dir.CommitMove("d", "k"), before);
  EXPECT_EQ(dir.Route("f")->owner, 2u);
  EXPECT_EQ(dir.Route("f")->state, core::ShardState::kSettled);
  EXPECT_EQ(dir.Route("c")->owner, 1u);
  EXPECT_EQ(dir.Route("k")->owner, 1u);
  EXPECT_TRUE(check::CheckPlacement(dir).empty());

  // CancelMove reverts an un-committed move.
  dir.BeginMove("d", "k", 1);
  dir.CancelMove("d", "k");
  EXPECT_EQ(dir.Route("f")->owner, 2u);
  EXPECT_EQ(dir.Route("f")->state, core::ShardState::kSettled);
}

TEST(ShardRouter, CachesUntilWrongShardForcesRefresh) {
  core::Directory dir;
  dir.RegisterGroup(1, {1});
  dir.RegisterGroup(2, {2});
  dir.AssignRange("", "m", 1);
  dir.AssignRange("m", "", 2);

  client::ShardRouter router(dir);
  EXPECT_EQ(router.Route("a"), 1u);
  EXPECT_EQ(router.Route("m"), 2u);
  EXPECT_EQ(router.Route("z"), 2u);

  // A placement change is invisible until a rejection forces a refresh.
  dir.BeginMove("", "m", 2);
  dir.BeginHandoff("", "m");
  EXPECT_EQ(router.Route("a"), 1u);  // stale cache: still the old owner
  router.NoteWrongShard();
  // Handoff routes to the incoming owner (serves from CommitMove on).
  EXPECT_EQ(router.Route("a"), 2u);
  EXPECT_EQ(router.refreshes(), 1u);

  dir.CommitMove("", "m");
  EXPECT_TRUE(router.Refresh());
  EXPECT_EQ(router.Route("a"), 2u);
  EXPECT_FALSE(router.Refresh());  // epoch unchanged
}

// -- object store range primitives ----------------------------------------

TEST(ObjectStoreRange, SnapshotInstallDropRoundTrip) {
  sim::Simulation sim(1);
  txn::ObjectStore a(sim), b(sim);

  // Seed committed bases through the same wire path the shard image uses.
  wire::Writer seed;
  seed.U32(4);
  for (const char* kv : {"a00", "a01", "b00", "c00"}) {
    seed.String(kv);
    seed.String(std::string("v-") + kv);
  }
  const auto seed_bytes = seed.Take();
  wire::Reader sr(seed_bytes);
  a.InstallRange(sr);
  ASSERT_TRUE(sr.ok());
  EXPECT_TRUE(a.RangeQuiescent("", ""));

  // Snapshot only ["a", "b") and install into an empty store.
  wire::Writer w;
  a.SnapshotRange(w, "a", "b");
  const auto bytes = w.Take();
  wire::Reader r(bytes);
  b.InstallRange(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(b.ReadCommitted("a00").value_or(""), "v-a00");
  EXPECT_EQ(b.ReadCommitted("a01").value_or(""), "v-a01");
  EXPECT_FALSE(b.ReadCommitted("b00").has_value());

  // Drop the range at the source; objects outside it survive.
  EXPECT_EQ(a.DropRange("a", "b"), 2u);
  EXPECT_FALSE(a.ReadCommitted("a00").has_value());
  EXPECT_EQ(a.ReadCommitted("b00").value_or(""), "v-b00");

  // A held lock blocks both quiescence and the drop.
  const vr::Aid aid{1, {1, 1}, 9};
  ASSERT_TRUE(b.TryAcquire("a00", aid, vr::LockMode::kWrite));
  EXPECT_FALSE(b.RangeQuiescent("a", "b"));
  EXPECT_EQ(b.DropRange("a", "b"), 1u);  // only the unlocked a01 goes
  EXPECT_EQ(b.ReadCommitted("a00").value_or(""), "v-a00");
}

// -- cross-group shard pull ------------------------------------------------

TEST(ShardPull, CopiesCommittedRangeAcrossGroups) {
  Cluster cluster(ClusterOptions{.seed = 101});
  auto g1 = cluster.AddGroup("src", 3);
  auto g2 = cluster.AddGroup("dst", 3);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, g1);
  test::RegisterKvProcs(cluster, g2);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(test::RunOneCall(cluster, client_g, g1, "put",
                               "k" + std::to_string(i) + "=v" +
                                   std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }

  core::Cohort* dst = cluster.AnyPrimary(g2);
  ASSERT_NE(dst, nullptr);
  bool done = false, ok = false;
  dst->PullShard(g1, "", "", [&](bool o) {
    done = true;
    ok = o;
  });
  EXPECT_TRUE(dst->shard_pull_active());
  for (int i = 0; i < 200 && !done; ++i) cluster.RunFor(10 * sim::kMillisecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_FALSE(dst->shard_pull_active());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dst->objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i));
  }
  EXPECT_GE(dst->stats().shard_images_installed, 1u);
  core::Cohort* src = cluster.AnyPrimary(g1);
  ASSERT_NE(src, nullptr);
  EXPECT_GE(src->stats().shard_pulls_served, 1u);

  // The install was forced: the destination's eager backups hold it too.
  cluster.RunFor(1 * sim::kSecond);
  for (auto* c : cluster.Cohorts(g2)) {
    if (c == dst || !c->options().eager_backup_apply) continue;
    if (c->cur_viewid() != dst->cur_viewid()) continue;
    EXPECT_EQ(c->objects().ReadCommitted("k0").value_or(""), "v0");
  }

  // Source-side GC.
  src->DropShard("", "");
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_FALSE(src->objects().ReadCommitted("k0").has_value());
  EXPECT_GE(src->stats().shard_ranges_dropped, 1u);
}

TEST(ShardPull, ImageDoesNotOutliveItsCrashedPuller) {
  // A source sends one image per pull request and keeps no transfer: only
  // the puller's own kShardPullRetry asks again, so a puller that crashed
  // before the image arrived is sent nothing more, however long the source
  // stays primary.
  Cluster cluster(ClusterOptions{.seed = 101});
  auto g1 = cluster.AddGroup("src", 3);
  auto g2 = cluster.AddGroup("dst", 3);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, g1);
  test::RegisterKvProcs(cluster, g2);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(test::RunOneCall(cluster, client_g, g1, "put",
                               "k" + std::to_string(i) + "=v" +
                                   std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  cluster.RunFor(100 * sim::kMillisecond);

  auto images_sent = [&] {
    const auto& by_type = cluster.network().stats().sent_by_type;
    auto it = by_type.find(
        static_cast<std::uint16_t>(vr::MsgType::kSnapshotChunk));
    return it == by_type.end() ? std::uint64_t{0} : it->second;
  };
  ASSERT_EQ(images_sent(), 0u);
  core::Cohort* dst = cluster.AnyPrimary(g2);
  ASSERT_NE(dst, nullptr);
  bool done = false;
  dst->PullShard(g1, "", "", [&](bool) { done = true; });
  // Crash the puller the moment the source has sent the image, before it
  // can arrive (a frame takes at least 100 us).
  for (int i = 0; i < 10000 && images_sent() == 0; ++i) {
    cluster.RunFor(50 * sim::kMicrosecond);
  }
  ASSERT_EQ(images_sent(), 1u);
  dst->Crash();
  EXPECT_TRUE(done);  // the crash failed the pull

  // The source stays primary throughout and sends nothing more.
  core::Cohort* src = cluster.AnyPrimary(g1);
  ASSERT_NE(src, nullptr);
  cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(images_sent(), 1u);
  cluster.RunFor(10 * sim::kSecond);
  EXPECT_EQ(images_sent(), 1u);
  EXPECT_TRUE(src->IsActivePrimary());
  EXPECT_EQ(src->stats().shard_pulls_served, 1u);
}

// -- sharded bank ----------------------------------------------------------

TEST(ShardedBank, ThreeShardCrossShardTransfersConserveMoney) {
  Cluster cluster(ClusterOptions{.seed = 102});
  auto bank = workload::SetupShardedBank(cluster, 3, 3, 30);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_TRUE(check::CheckPlacement(cluster.directory()).empty());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 30);

  client::ShardRouter router(cluster.directory());
  sim::Rng rng(7);
  workload::DriverOptions opts;
  opts.total_txns = 60;
  opts.max_inflight = 3;
  opts.retries_per_txn = 10;
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t) {
        // Force a cross-shard pair: pick the accounts from different thirds.
        const int from = static_cast<int>(rng.Index(10));
        const int to = 10 + static_cast<int>(rng.Index(20));
        return workload::MakeShardedTransferTxn(
            router, ShardAccountName(from), ShardAccountName(to), 3);
      },
      opts);
  ASSERT_TRUE(driver.Run());
  cluster.RunFor(2 * sim::kSecond);

  EXPECT_GT(driver.accounting().committed, 0u);
  EXPECT_EQ(driver.accounting().unknown, 0u);
  EXPECT_EQ(workload::ShardedBankTotal(cluster, 30), 3000);
  std::vector<std::string> accounts;
  for (int i = 0; i < 30; ++i) accounts.push_back(ShardAccountName(i));
  EXPECT_TRUE(check::CheckConservation(cluster, accounts, 3000).empty());
  for (auto g : bank.shards) {
    EXPECT_TRUE(check::CheckQuiescent(cluster, g).empty());
  }
  EXPECT_GE(cluster.TotalCommittedAll(),
            driver.accounting().committed);
}

TEST(ShardedBank, WrongShardCallIsRejectedNotServed) {
  Cluster cluster(ClusterOptions{.seed = 103});
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 10);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 50), 10);

  // a000 lives on shard 0; a deposit sent to shard 1 must abort, and the
  // balance must not change anywhere.
  EXPECT_EQ(test::RunOneCall(cluster, bank.client_group, bank.shards[1],
                             "deposit", "a000=5"),
            vr::TxnOutcome::kAborted);
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_EQ(workload::ShardedCommittedBalance(cluster, "a000"), 50);
  EXPECT_EQ(workload::ShardedBankTotal(cluster, 10), 500);
}

TEST(ShardedBank, LiveRebalanceUnderTrafficZeroLostOrDuplicated) {
  Cluster cluster(ClusterOptions{.seed = 104});
  auto bank = workload::SetupShardedBank(cluster, 3, 3, 24);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 24);

  client::ShardRouter router(cluster.directory());
  client::ShardRebalancer rebalancer(cluster);

  // Deterministic transfer plan so committed outcomes can be folded into an
  // exact per-account model.
  struct Plan {
    int from, to;
    long long amt;
  };
  std::vector<Plan> plan;
  sim::Rng rng(11);
  for (int i = 0; i < 80; ++i) {
    const int from = static_cast<int>(rng.Index(24));
    int to = static_cast<int>(rng.Index(24));
    if (to == from) to = (to + 1) % 24;
    plan.push_back({from, to, 1 + static_cast<long long>(rng.Index(5))});
  }
  std::map<int, long long> model;
  for (int i = 0; i < 24; ++i) model[i] = 100;

  workload::DriverOptions opts;
  opts.total_txns = static_cast<int>(plan.size());
  opts.max_inflight = 4;
  // The handoff window rejects every touching transaction; retries must
  // outlast it (each round trip is a few ms, the window tens of ms).
  opts.retries_per_txn = 100;
  opts.on_outcome = [&](std::uint64_t i, vr::TxnOutcome o) {
    if (o == vr::TxnOutcome::kCommitted) {
      model[plan[i].from] -= plan[i].amt;
      model[plan[i].to] += plan[i].amt;
    }
  };
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t i) {
        return workload::MakeShardedTransferTxn(
            router, ShardAccountName(plan[i].from),
            ShardAccountName(plan[i].to), plan[i].amt);
      },
      opts);

  // Move shard 0's whole range to shard 2 while transfers stream.
  bool move_ok = false, move_done = false;
  cluster.sim().scheduler().After(80 * sim::kMillisecond, [&] {
    const core::ShardRange* r =
        cluster.directory().Route(ShardAccountName(0));
    ASSERT_NE(r, nullptr);
    rebalancer.Move(r->lo, r->hi, bank.shards[2], [&](bool ok) {
      move_done = true;
      move_ok = ok;
    });
  });

  ASSERT_TRUE(driver.Run());
  for (int i = 0; i < 500 && !move_done; ++i) {
    cluster.RunFor(10 * sim::kMillisecond);
  }
  cluster.RunFor(2 * sim::kSecond);

  ASSERT_TRUE(move_done);
  EXPECT_TRUE(move_ok);
  EXPECT_EQ(rebalancer.stats().moves_completed, 1u);
  EXPECT_GT(rebalancer.stats().last_handoff_window, 0);

  // Routing flipped: shard 2 now owns account 0's range.
  EXPECT_EQ(cluster.directory().Route(ShardAccountName(0))->owner,
            bank.shards[2]);
  ASSERT_TRUE(check::CheckPlacement(cluster.directory()).empty());

  // Zero lost, zero duplicated: every committed transfer applied exactly
  // once — the committed balances equal the model's, account by account.
  ASSERT_EQ(driver.accounting().unknown, 0u);
  EXPECT_GT(driver.accounting().committed, 0u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(workload::ShardedCommittedBalance(cluster, ShardAccountName(i)),
              model[i])
        << "account " << ShardAccountName(i);
  }
  EXPECT_EQ(workload::ShardedBankTotal(cluster, 24), 2400);
}

TEST(ShardedBank, RebalanceSurvivesCrashAndPartition) {
  Cluster cluster(ClusterOptions{.seed = 105});
  auto bank = workload::SetupShardedBank(cluster, 3, 3, 18);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 18);

  const vr::GroupId src_g = bank.shards[0];
  const vr::GroupId dst_g = bank.shards[1];
  const core::ShardRange* r = cluster.directory().Route(ShardAccountName(0));
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->owner, src_g);
  const std::string lo = r->lo, hi = r->hi;

  client::ShardRebalancer rebalancer(cluster);
  bool move_ok = false, move_done = false;
  rebalancer.Move(lo, hi, dst_g, [&](bool ok) {
    move_done = true;
    move_ok = ok;
  });

  // Crash the destination primary right away (kills the first pull) and
  // partition the source primary mid-move (stalls serving/drain until its
  // group elects a new view), then heal and recover.
  core::Cohort* dst_p = cluster.AnyPrimary(dst_g);
  ASSERT_NE(dst_p, nullptr);
  const auto dst_mid = dst_p->mid();
  dst_p->Crash();
  cluster.sim().scheduler().After(50 * sim::kMillisecond, [&] {
    core::Cohort* src_p = cluster.AnyPrimary(src_g);
    if (src_p == nullptr) return;
    std::vector<net::NodeId> rest;
    for (auto g : cluster.AllGroups()) {
      for (auto* c : cluster.Cohorts(g)) {
        if (c != src_p) rest.push_back(c->mid());
      }
    }
    cluster.network().Partition({{src_p->mid()}, rest});
  });
  cluster.sim().scheduler().After(400 * sim::kMillisecond,
                                  [&] { cluster.network().Heal(); });
  cluster.sim().scheduler().After(600 * sim::kMillisecond, [&] {
    for (auto* c : cluster.Cohorts(dst_g)) {
      if (c->mid() == dst_mid) c->Recover();
    }
  });

  for (int i = 0; i < 2000 && !move_done; ++i) {
    cluster.RunFor(10 * sim::kMillisecond);
  }
  ASSERT_TRUE(move_done);
  EXPECT_TRUE(move_ok);
  EXPECT_EQ(cluster.directory().Route(ShardAccountName(0))->owner, dst_g);

  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);
  EXPECT_EQ(workload::ShardedBankTotal(cluster, 18), 1800);
  ASSERT_TRUE(check::CheckPlacement(cluster.directory()).empty());
  for (auto g : bank.shards) {
    EXPECT_TRUE(check::CheckInstant(cluster, g).empty());
  }
}

TEST(ShardedBank, WholeClusterOutageConservesMoneyAcrossShards) {
  ClusterOptions o{.seed = 106};
  o.cohort.event_log.enabled = true;  // disks survive the blackout
  Cluster cluster(o);
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 12);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 100), 12);

  client::ShardRouter router(cluster.directory());
  sim::Rng rng(13);
  workload::DriverOptions opts;
  opts.total_txns = 40;
  opts.max_inflight = 2;
  opts.retries_per_txn = 10;
  opts.deadline = 300 * sim::kSecond;
  workload::ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&](std::uint64_t) {
        const int from = static_cast<int>(rng.Index(12));
        const int to = (from + 1 + static_cast<int>(rng.Index(11))) % 12;
        return workload::MakeShardedTransferTxn(
            router, ShardAccountName(from), ShardAccountName(to), 2);
      },
      opts);

  // §4.2 drill aimed at every shard at once: all replicas of all groups go
  // down mid-stream and come back with their logs.
  std::vector<std::pair<vr::GroupId, std::size_t>> topo;
  for (auto g : bank.shards) topo.push_back({g, 3});
  topo.push_back({bank.client_group, 3});
  workload::ArmFailureSchedule(
      cluster,
      workload::WholeClusterOutage(topo,
                                   cluster.sim().Now() +
                                       200 * sim::kMillisecond,
                                   500 * sim::kMillisecond));

  driver.Run();  // some outcomes may be unknown across the blackout
  ASSERT_TRUE(cluster.RunUntilStable(30 * sim::kSecond));
  cluster.RunFor(5 * sim::kSecond);

  // Transfers conserve money whatever committed — and committed state
  // survived the majority-loss event via the durable logs.
  EXPECT_EQ(workload::ShardedBankTotal(cluster, 12), 1200);
  for (auto g : bank.shards) {
    EXPECT_TRUE(check::CheckInstant(cluster, g).empty());
  }
}

// -- cluster-wide aggregates & failure shapes ------------------------------

TEST(Cluster, ClusterWideTotalsSumEveryGroup) {
  Cluster cluster(ClusterOptions{.seed = 107});
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 8);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 10), 8);

  const auto groups = cluster.AllGroups();
  ASSERT_EQ(groups.size(), 3u);  // 2 shards + client, in creation order
  EXPECT_EQ(groups[0], bank.shards[0]);
  EXPECT_EQ(groups[2], bank.client_group);

  std::uint64_t sum_c = 0, sum_a = 0;
  for (auto g : groups) {
    sum_c += cluster.TotalCommitted(g);
    sum_a += cluster.TotalAborted(g);
  }
  EXPECT_EQ(cluster.TotalCommittedAll(), sum_c);
  EXPECT_EQ(cluster.TotalAbortedAll(), sum_a);
  EXPECT_GT(cluster.TotalCommittedAll(), 0u);
  // Funding commits ran on shard groups the per-group client count misses.
  EXPECT_GE(cluster.TotalCommittedAll(),
            cluster.TotalCommitted(bank.client_group));
}

TEST(FailureSchedule, MultiGroupAndOutageShapes) {
  sim::Rng rng(17);
  auto multi = workload::RandomMultiGroupCrashSchedule(
      rng, {{1, 3}, {2, 3}}, 60 * sim::kSecond, 5, 1);
  bool saw_g1 = false, saw_g2 = false;
  for (const auto& e : multi) {
    saw_g1 |= e.group == 1;
    saw_g2 |= e.group == 2;
  }
  EXPECT_TRUE(saw_g1);
  EXPECT_TRUE(saw_g2);

  auto outage = workload::WholeClusterOutage({{1, 2}, {2, 2}},
                                             1 * sim::kSecond,
                                             500 * sim::kMillisecond);
  ASSERT_EQ(outage.size(), 8u);  // crash + recover per replica
  int crashes = 0;
  sim::Time last_recover = 0;
  for (const auto& e : outage) {
    if (e.kind == workload::FailureEvent::Kind::kCrash) {
      ++crashes;
      EXPECT_EQ(e.at, 1 * sim::kSecond);
    } else {
      EXPECT_EQ(e.kind, workload::FailureEvent::Kind::kRecover);
      EXPECT_GT(e.at, last_recover);  // staggered
      last_recover = e.at;
    }
  }
  EXPECT_EQ(crashes, 4);
}

}  // namespace
}  // namespace vsr
