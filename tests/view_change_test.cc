// View-change integration tests (§4): crashes, partitions, recoveries, and
// the survival guarantees of committed state.
#include <gtest/gtest.h>

#include <functional>

#include "tests/test_util.h"
#include "workload/bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using test::RegisterKvProcs;
using test::RunOneCall;

std::size_t IndexOfPrimary(Cluster& cluster, vr::GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

TEST(ViewChange, PrimaryCrashElectsNewPrimary) {
  Cluster cluster(ClusterOptions{.seed = 11});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(old_primary, 3u);
  const vr::ViewId old_viewid = cluster.CohortAt(g, old_primary).cur_viewid();

  cluster.Crash(g, old_primary);
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t new_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(new_primary, 3u);
  EXPECT_NE(new_primary, old_primary);
  // Viewids are totally ordered and only grow.
  EXPECT_GT(cluster.CohortAt(g, new_primary).cur_viewid(), old_viewid);
}

TEST(ViewChange, CommittedStateSurvivesPrimaryCrash) {
  Cluster cluster(ClusterOptions{.seed = 12});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  ASSERT_EQ(RunOneCall(cluster, client_g, g, "put", "k=committed"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * sim::kMillisecond);

  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  cluster.Crash(g, old_primary);
  ASSERT_TRUE(cluster.RunUntilStable());

  // "events of committed transactions will survive view changes."
  EXPECT_EQ(test::CommittedValue(cluster, g, "k"), "committed");
  // And the group keeps serving transactions. (The first attempt may abort:
  // Fig. 2's no-reply rule; applications simply retry.)
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "put", "k2=after"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * sim::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "k2"), "after");
}

TEST(ViewChange, BackupCrashKeepsGroupAvailable) {
  Cluster cluster(ClusterOptions{.seed = 13});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t primary = IndexOfPrimary(cluster, g);
  const std::size_t backup = (primary + 1) % 3;
  cluster.Crash(g, backup);
  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_EQ(RunOneCall(cluster, client_g, g, "put", "a=1"),
            vr::TxnOutcome::kCommitted);
}

TEST(ViewChange, CrashedCohortRecoversAndRejoins) {
  Cluster cluster(ClusterOptions{.seed = 14});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  ASSERT_EQ(RunOneCall(cluster, client_g, g, "put", "x=1"),
            vr::TxnOutcome::kCommitted);

  const std::size_t victim = IndexOfPrimary(cluster, g);
  cluster.Crash(g, victim);
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "put", "x=2"),
            vr::TxnOutcome::kCommitted);

  cluster.Recover(g, victim);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);

  // The recovered cohort re-initializes from a newview record (it sent a
  // "crashed" acceptance) and ends up with the committed state.
  auto& recovered = cluster.CohortAt(g, victim);
  EXPECT_EQ(recovered.status(), core::Status::kActive);
  EXPECT_TRUE(recovered.up_to_date());
  EXPECT_EQ(recovered.objects().ReadCommitted("x").value_or(""), "2");
}

TEST(ViewChange, MinorityPartitionCannotFormView) {
  Cluster cluster(ClusterOptions{.seed = 15});
  auto g = cluster.AddGroup("kv", 5);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  auto cohorts = cluster.Cohorts(g);
  // Partition mids {0,1} away from {2,3,4}.
  std::vector<net::NodeId> minority{cohorts[0]->mid(), cohorts[1]->mid()};
  std::vector<net::NodeId> majority{cohorts[2]->mid(), cohorts[3]->mid(),
                                    cohorts[4]->mid()};
  cluster.network().Partition({minority, majority});
  cluster.RunFor(5 * sim::kSecond);

  // The majority side has an active primary; the minority side has none.
  int active_in_minority = 0;
  int primaries_in_majority = 0;
  for (auto* c : {cohorts[0], cohorts[1]}) {
    if (c->IsActivePrimary()) ++active_in_minority;
  }
  for (auto* c : {cohorts[2], cohorts[3], cohorts[4]}) {
    if (c->IsActivePrimary()) ++primaries_in_majority;
  }
  EXPECT_EQ(active_in_minority, 0);
  EXPECT_EQ(primaries_in_majority, 1);

  // Healing reunites the group into a single active view.
  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);
  int actives = 0;
  for (auto* c : cohorts) {
    if (c->IsActivePrimary()) ++actives;
  }
  EXPECT_EQ(actives, 1);
}

TEST(ViewChange, WorkContinuesAcrossPartitionOfPrimary) {
  Cluster cluster(ClusterOptions{.seed = 16});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCall(cluster, client_g, g, "put", "p=before"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * sim::kMillisecond);

  // Isolate the server primary from everyone (server backups + clients).
  auto cohorts = cluster.Cohorts(g);
  const std::size_t primary = IndexOfPrimary(cluster, g);
  std::vector<net::NodeId> isolated{cohorts[primary]->mid()};
  std::vector<net::NodeId> rest;
  for (auto* c : cohorts) {
    if (c->mid() != cohorts[primary]->mid()) rest.push_back(c->mid());
  }
  for (auto* c : cluster.Cohorts(client_g)) rest.push_back(c->mid());
  cluster.network().Partition({isolated, rest});

  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "put", "p=after"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(300 * sim::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "p"), "after");

  // The stale primary cannot commit anything: §4.1 "The old primary will not
  // be able to prepare and commit user transactions, however, since it
  // cannot force their effects to the backups."
  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "p"), "after");
}

TEST(ViewChange, MajorityCrashIsCatastrophicUntilRecovery) {
  // §4.2: if a majority crash "simultaneously", the group state may be lost;
  // the algorithm then never forms a view again (it does NOT form a wrong
  // view). Here both backups crash and recover with empty gstate while the
  // primary also crashes: 3 crash-acceptances, no normal one — no view.
  Cluster cluster(ClusterOptions{.seed = 17});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  for (std::size_t i = 0; i < 3; ++i) cluster.Crash(g, i);
  for (std::size_t i = 0; i < 3; ++i) cluster.Recover(g, i);
  EXPECT_FALSE(cluster.RunUntilStable(5 * sim::kSecond));
  for (auto* c : cluster.Cohorts(g)) {
    EXPECT_NE(c->status(), core::Status::kActive);
  }
}

TEST(ViewChange, BothBackupsCrashAndRecover) {
  // The surviving PRIMARY accepts normally, so condition (3) holds:
  // "crash-viewid = normal-viewid and the primary of view normal-viewid has
  //  done a normal acceptance" — the primary always knows at least as much
  // as any backup, so the crashed backups' lost state is irrelevant.
  Cluster cluster(ClusterOptions{.seed = 18});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(primary, 3u);

  for (std::size_t i = 0; i < 3; ++i) {
    if (i != primary) cluster.Crash(g, i);
  }
  cluster.RunFor(500 * sim::kMillisecond);
  for (std::size_t i = 0; i < 3; ++i) {
    if (i != primary) cluster.Recover(g, i);
  }
  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_NE(cluster.AnyPrimary(g), nullptr);
}

TEST(ViewChange, PaperSection4SafetyExample) {
  // The paper's own example (§4): "suppose there are three cohorts, A, B and
  // C ... A committed a transaction, forcing its event records to B but not
  // C, then A crashed and recovered ... we cannot form a new view [without
  // B] because A has lost information and there are forced events that C
  // does not know." With the primary A recovered-from-crash and backup B
  // down, A+C alone must NOT form a view: none of conditions (1)-(3) hold.
  Cluster cluster(ClusterOptions{.seed = 181});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t a = IndexOfPrimary(cluster, g);
  ASSERT_LT(a, 3u);
  const std::size_t b = (a + 1) % 3;

  cluster.Crash(g, a);  // primary loses its volatile state
  // B keeps its state but is unreachable (partitioned away), exactly the
  // paper's "a partition occurred that separated B from A and C".
  auto cohorts = cluster.Cohorts(g);
  cluster.network().Partition(
      {{cohorts[b]->mid()},
       {cohorts[a]->mid(), cohorts[3 - a - b]->mid()}});
  cluster.RunFor(200 * sim::kMillisecond);
  cluster.Recover(g, a);  // A returns with a crash-acceptance only

  // A (crashed accept, viewid v) + C (normal accept, viewid v): condition 3
  // fails because the primary of view v did not accept normally.
  EXPECT_FALSE(cluster.RunUntilStable(5 * sim::kSecond));
  for (auto* c : cluster.Cohorts(g)) {
    EXPECT_FALSE(c->IsActivePrimary());
  }

  // "the partition is repaired": B's normal acceptance carries the forced
  // events and the view forms again with nothing lost.
  cluster.network().Heal();
  EXPECT_TRUE(cluster.RunUntilStable());
}

TEST(ViewChange, RepeatedPrimaryCrashes) {
  Cluster cluster(ClusterOptions{.seed = 19});
  auto g = cluster.AddGroup("kv", 5);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  int expected = 0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "add", "ctr=1"),
              vr::TxnOutcome::kCommitted)
        << "round " << round;
    ++expected;
    cluster.RunFor(300 * sim::kMillisecond);
    const std::size_t primary = IndexOfPrimary(cluster, g);
    ASSERT_LT(primary, 5u);
    cluster.Crash(g, primary);
    ASSERT_TRUE(cluster.RunUntilStable()) << "round " << round;
  }
  ASSERT_EQ(test::RunOneCallWithRetry(cluster, client_g, g, "add", "ctr=1"),
            vr::TxnOutcome::kCommitted);
  ++expected;
  cluster.RunFor(300 * sim::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, g, "ctr"),
            std::to_string(expected));
}


// -- failover timing (DESIGN.md §16) ----------------------------------------

// Runs in 1 ms steps until `done` holds or `limit` passes.
bool RunUntil(Cluster& cluster, const std::function<bool()>& done,
              sim::Duration limit) {
  const sim::Time deadline = cluster.sim().Now() + limit;
  while (!done() && cluster.sim().Now() < deadline) {
    cluster.RunFor(1 * sim::kMillisecond);
  }
  return done();
}

// Holds every invitation delivered to one cohort for `delay` before the
// cohort sees it; every other frame (pings included) passes at once.
class InviteDelayer : public net::FrameHandler {
 public:
  InviteDelayer(Cluster& cluster, core::Cohort& inner, sim::Duration delay)
      : cluster_(cluster), inner_(inner), delay_(delay) {
    cluster_.network().Register(inner_.mid(), this);
  }
  ~InviteDelayer() override { cluster_.network().Register(inner_.mid(), &inner_); }
  void OnFrame(const net::Frame& frame) override {
    if (static_cast<vr::MsgType>(frame.type) != vr::MsgType::kInvite) {
      inner_.OnFrame(frame);
      return;
    }
    cluster_.sim().scheduler().After(delay_,
                                     [this, frame] { inner_.OnFrame(frame); });
  }

 private:
  Cluster& cluster_;
  core::Cohort& inner_;
  sim::Duration delay_;
};

// The manager forms the view once the one cohort it has not heard from is
// the crashed primary, and the next cohort in line does not wait out a
// stagger for it: the new view is active within the failure detector's
// reaction plus a round trip, never after the invite timer.
TEST(Failover, PrimaryCrashFormsTheViewAtDetectionSpeed) {
  Cluster cluster(ClusterOptions{.seed = 21});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);
  const core::CohortOptions& o = cluster.CohortAt(g, 0).options();
  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(old_primary, 3u);

  const sim::Time crashed_at = cluster.sim().Now();
  cluster.Crash(g, old_primary);
  ASSERT_TRUE(RunUntil(cluster, [&] {
    const std::size_t p = IndexOfPrimary(cluster, g);
    return p < 3 && p != old_primary;
  }, 2 * sim::kSecond));

  sim::Time detected = 0;
  sim::Time active = 0;
  std::uint64_t failures = 0;
  for (auto* c : cluster.Cohorts(g)) {
    if (c->status() == core::Status::kCrashed) continue;
    const auto& st = c->stats();
    if (detected == 0 || st.last_view_change_started < detected) {
      detected = st.last_view_change_started;
    }
    active = std::max(active, st.last_view_change_completed);
    failures += st.view_formation_failures;
  }
  EXPECT_LE(detected - crashed_at, o.liveness_timeout + core::kFdCheckInterval);
  EXPECT_LE(active - detected, 20 * sim::kMillisecond);
  EXPECT_LT(active - detected, core::kInviteResponseWait);
  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(cluster.AnyPrimary(g)->cur_view().backups.size(), 1u);
}

// A cohort that is slow to accept but still pinging is not suspected, so
// the manager waits for it (up to the invite timer) instead of forming the
// view early without it.
TEST(Failover, SlowButLiveCohortIsIncludedInTheView) {
  Cluster cluster(ClusterOptions{.seed = 22});
  auto g = cluster.AddGroup("kv", 5);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);
  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(old_primary, 5u);
  // The slow cohort is the last in line, so it never manages itself.
  std::size_t slow = 4;
  if (slow == old_primary) slow = 3;
  core::Cohort& slow_cohort = cluster.CohortAt(g, slow);
  InviteDelayer delayer(cluster, slow_cohort, 50 * sim::kMillisecond);

  cluster.Crash(g, old_primary);
  ASSERT_TRUE(RunUntil(cluster, [&] {
    const std::size_t p = IndexOfPrimary(cluster, g);
    return p < 5 && p != old_primary && slow_cohort.status() == core::Status::kActive;
  }, 2 * sim::kSecond));
  core::Cohort* primary = cluster.AnyPrimary(g);
  EXPECT_TRUE(primary->cur_view().Contains(slow_cohort.mid()))
      << primary->cur_view().ToString();
  EXPECT_EQ(primary->cur_view().backups.size(), 3u);
  // It was waited for, but not for the whole invite timer.
  sim::Time began = 0;
  for (auto* c : cluster.Cohorts(g)) {
    if (c->status() == core::Status::kCrashed) continue;
    const sim::Time t = c->stats().last_view_change_started;
    if (began == 0 || t < began) began = t;
  }
  const sim::Time done = slow_cohort.stats().last_view_change_completed;
  EXPECT_GE(done - began, 50 * sim::kMillisecond);
  EXPECT_LT(done - began, core::kInviteResponseWait);
}

// A cohort that has just recovered has heard from nobody, and a cohort it
// has never heard from counts as live: it waits out the invite timer
// rather than forming a view without the silent cohort.
TEST(Failover, JustRecoveredManagerWaitsForTheInviteTimer) {
  Cluster cluster(ClusterOptions{.seed = 23});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(primary, 3u);
  const std::size_t gone = (primary + 1) % 3;
  const std::size_t recovering = (primary + 2) % 3;
  cluster.Crash(g, gone);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);
  ASSERT_EQ(IndexOfPrimary(cluster, g), primary);

  cluster.Crash(g, recovering);
  cluster.RunFor(10 * sim::kMillisecond);
  core::Cohort& manager = cluster.CohortAt(g, recovering);
  const sim::Time recovered_at = cluster.sim().Now();
  cluster.Recover(g, recovering);
  ASSERT_EQ(manager.status(), core::Status::kViewManager);
  // The primary accepts within a round trip; the crashed cohort, never
  // heard from since the recovery, keeps the manager waiting.
  ASSERT_TRUE(RunUntil(cluster, [&] {
    return manager.status() == core::Status::kActive;
  }, 2 * sim::kSecond));
  EXPECT_GE(manager.stats().last_view_change_completed - recovered_at,
            core::kInviteResponseWait);
  EXPECT_EQ(manager.stats().view_formation_failures, 0u);
}

// With every silent cohort suspected, acceptances that cannot form a view
// do not count as a failed formation and arm no retry: the manager keeps
// waiting, and only the invite timer's attempt counts.
TEST(Failover, EarlyAcceptancesThatCannotFormAViewKeepWaiting) {
  Cluster cluster(ClusterOptions{.seed = 24});
  auto g = cluster.AddGroup("kv", 5);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);
  const std::size_t old_primary = IndexOfPrimary(cluster, g);
  ASSERT_LT(old_primary, 5u);
  // Two survivors, a minority of five: every silent cohort is crashed.
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i != old_primary && survivors.size() < 2) survivors.push_back(i);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    if (std::find(survivors.begin(), survivors.end(), i) == survivors.end()) {
      cluster.Crash(g, i);
    }
  }
  core::Cohort& manager = cluster.CohortAt(g, survivors[0]);
  core::Cohort& other = cluster.CohortAt(g, survivors[1]);
  ASSERT_TRUE(RunUntil(cluster, [&] {
    return manager.status() == core::Status::kViewManager;
  }, 2 * sim::kSecond));
  const sim::Time began = manager.stats().last_view_change_started;
  // The other survivor has accepted; the manager still waits.
  ASSERT_TRUE(RunUntil(cluster, [&] {
    return other.status() == core::Status::kUnderling;
  }, 100 * sim::kMillisecond));
  cluster.RunFor(began + core::kInviteResponseWait - 5 * sim::kMillisecond -
                 cluster.sim().Now());
  EXPECT_EQ(manager.status(), core::Status::kViewManager);
  EXPECT_EQ(manager.stats().view_formation_failures, 0u);
  cluster.RunFor(10 * sim::kMillisecond);
  EXPECT_EQ(manager.stats().view_formation_failures, 1u);
}

// §4.1: "a cohort would become a manager only if all higher-priority
// cohorts appear to be inaccessible". With configuration_[0] crashed, the
// next cohort invites at once; the one after it defers to it.
TEST(Failover, NextLiveCohortManagesWithoutTheStagger) {
  Cluster cluster(ClusterOptions{.seed = 25});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);
  ASSERT_EQ(IndexOfPrimary(cluster, g), 0u);
  core::Cohort& second = cluster.CohortAt(g, 1);
  core::Cohort& third = cluster.CohortAt(g, 2);
  const std::uint64_t third_started = third.stats().view_changes_started;
  const core::CohortOptions& o = second.options();

  const sim::Time crashed_at = cluster.sim().Now();
  cluster.Crash(g, 0);
  ASSERT_TRUE(RunUntil(cluster, [&] {
    return second.status() == core::Status::kViewManager;
  }, 1 * sim::kSecond));
  EXPECT_LE(cluster.sim().Now() - crashed_at,
            o.liveness_timeout + core::kFdCheckInterval);
  ASSERT_TRUE(cluster.RunUntilStable());
  EXPECT_EQ(third.stats().view_changes_started, third_started);
}

// With configuration_[0] alive, it is the one manager: the cohort ranked
// below it still defers, and nobody else starts a view change.
TEST(Failover, LiveFirstCohortIsTheOnlyManager) {
  Cluster cluster(ClusterOptions{.seed = 26});
  auto g = cluster.AddGroup("kv", 3);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);
  // Make configuration_[1] the primary and bring configuration_[0] back as
  // a backup.
  ASSERT_EQ(IndexOfPrimary(cluster, g), 0u);
  cluster.Crash(g, 0);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.Recover(g, 0);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(1 * sim::kSecond);
  ASSERT_EQ(IndexOfPrimary(cluster, g), 1u);
  ASSERT_EQ(cluster.CohortAt(g, 0).status(), core::Status::kActive);

  std::uint64_t started = 0;
  for (auto* c : cluster.Cohorts(g)) started += c->stats().view_changes_started;
  const std::uint64_t formed =
      cluster.CohortAt(g, 0).stats().views_formed_as_manager;
  cluster.Crash(g, 1);
  ASSERT_TRUE(cluster.RunUntilStable());
  std::uint64_t started_after = 0;
  for (auto* c : cluster.Cohorts(g)) {
    started_after += c->stats().view_changes_started;
  }
  EXPECT_EQ(started_after - started, 1u);
  EXPECT_EQ(cluster.CohortAt(g, 0).stats().views_formed_as_manager - formed,
            1u);
}

// A coordinator that has never used a group probes every member at once;
// a dead first member costs nothing.
TEST(Failover, CacheLookupSkipsADeadFirstMember) {
  Cluster cluster(ClusterOptions{.seed = 27});
  auto g = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.Crash(g, 0);
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(500 * sim::kMillisecond);

  core::Cohort* coord = cluster.AnyPrimary(client_g);
  ASSERT_NE(coord, nullptr);
  auto probes_sent = [&cluster] {
    const auto& by_type = cluster.network().stats().sent_by_type;
    const auto it = by_type.find(static_cast<std::uint16_t>(vr::MsgType::kProbe));
    return it == by_type.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t probes_before = probes_sent();
  std::optional<vr::TxnOutcome> outcome;
  const sim::Time began = cluster.sim().Now();
  sim::Time replied = 0;
  coord->SpawnTransaction(
      [g, &cluster, &replied](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(g, "put", std::string("k=v"));
        replied = cluster.sim().Now();
        co_return true;
      },
      [&](vr::TxnOutcome o) { outcome = o; });
  ASSERT_TRUE(RunUntil(cluster, [&] { return outcome.has_value(); },
                       2 * sim::kSecond));
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  // One probe round (three probes) and the call's round trip, well inside
  // one probe timeout.
  EXPECT_LT(replied - began, core::kProbeTimeout);
  EXPECT_EQ(probes_sent() - probes_before, 3u);
}

// DESIGN.md §16 rule 4: a deposit whose final call went to a primary that
// crashed before it arrived does not wait out the call ladder. Its silent
// transmission starts a watch, the new view answers it as soon as it is
// active, and the call ends as a wrong-view redirect; the new primary
// settles the deposit, and the bank moves exactly as the outcome says.
TEST(Failover, CallToACrashedPrimaryEndsWhenTheNewViewForms) {
  Cluster cluster(ClusterOptions{.seed = 28});
  auto bank = cluster.AddGroup("bank", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCall(cluster, client_g, bank, "open", "a0=100"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);
  const std::size_t old_primary = IndexOfPrimary(cluster, bank);
  ASSERT_LT(old_primary, 3u);
  core::Cohort* coord = cluster.AnyPrimary(client_g);
  ASSERT_NE(coord, nullptr);

  std::optional<vr::TxnOutcome> outcome;
  sim::Time resolved = 0;
  const sim::Time crashed_at = cluster.sim().Now();
  coord->SpawnTransaction(workload::MakeDepositTxn(bank, "a0", 7),
                          [&](vr::TxnOutcome o) {
                            outcome = o;
                            resolved = cluster.sim().Now();
                          });
  cluster.Crash(bank, old_primary);  // the call is on the wire to it
  ASSERT_TRUE(RunUntil(cluster, [&] { return outcome.has_value(); },
                       2 * sim::kSecond));
  const std::size_t new_primary = IndexOfPrimary(cluster, bank);
  ASSERT_LT(new_primary, 3u);
  // The view serves once its primary is active and its backup has adopted
  // it (the backup's ack makes the first force), which takes the backup's
  // viewid write.
  const sim::Time primary_active =
      cluster.CohortAt(bank, new_primary).stats().last_view_change_completed;
  sim::Time view_active = 0;
  for (auto* c : cluster.Cohorts(bank)) {
    if (c->status() != core::Status::kCrashed) {
      view_active = std::max(view_active,
                             c->stats().last_view_change_completed);
    }
  }
  EXPECT_GT(primary_active, crashed_at);
  EXPECT_GE(resolved, primary_active);
  EXPECT_LE(resolved - view_active, 10 * sim::kMillisecond);
  EXPECT_LT(resolved - crashed_at, core::kCallAttempts * core::kCallTimeout);

  cluster.RunFor(500 * sim::kMillisecond);
  const long long expected =
      *outcome == vr::TxnOutcome::kCommitted ? 107 : 100;
  EXPECT_EQ(workload::CommittedBankTotal(cluster, bank, 1), expected);
}

}  // namespace
}  // namespace vsr
