// Tests for §3.5: unreplicated clients using a replicated coordinator-server.
#include <gtest/gtest.h>

#include <optional>

#include "client/unreplicated_client.h"
#include "tests/test_util.h"

namespace vsr {
namespace {

using client::ClientTxn;
using client::Cluster;
using client::ClusterOptions;
using client::UnreplicatedClient;

struct World {
  explicit World(std::uint64_t seed) : cluster(ClusterOptions{.seed = seed}) {
    server = cluster.AddGroup("kv", 3);
    coord = cluster.AddGroup("coord", 3);
    test::RegisterKvProcs(cluster, server);
    cluster.Start();
  }
  Cluster cluster;
  vr::GroupId server;
  vr::GroupId coord;
};

vr::TxnOutcome RunClientTxn(World& w, UnreplicatedClient& c,
                            std::function<sim::Task<bool>(ClientTxn&)> body,
                            sim::Duration deadline = 10 * sim::kSecond) {
  vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  bool done = false;
  c.Spawn(std::move(body), [&](vr::TxnOutcome o) {
    outcome = o;
    done = true;
  });
  const sim::Time end = w.cluster.sim().Now() + deadline;
  while (!done && w.cluster.sim().Now() < end) {
    w.cluster.RunFor(10 * sim::kMillisecond);
  }
  return outcome;
}

TEST(CoordinatorServer, ClientCommitsThroughIt) {
  World w(41);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       core::CohortOptions{});

  auto outcome = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("x=5"));
    co_return true;
  });
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  w.cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(w.cluster, w.server, "x"), "5");
  EXPECT_EQ(c.stats().txns_committed, 1u);
}

// The client probes every member of a group at once (DESIGN.md §16): with
// the first member of both the coordinator and the server group dead, a
// cold client still finds both primaries within a round trip each.
TEST(CoordinatorServer, ColdClientSkipsDeadFirstMembers) {
  World w(43);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  w.cluster.Crash(w.server, 0);
  w.cluster.Crash(w.coord, 0);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  w.cluster.RunFor(500 * sim::kMillisecond);
  const core::CohortOptions options;
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       options);

  std::optional<vr::TxnOutcome> outcome;
  const sim::Time began = w.cluster.sim().Now();
  sim::Time done_at = 0;
  c.Spawn(
      [&](ClientTxn& t) -> sim::Task<bool> {
        co_await t.Call(w.server, "put", std::string("z=3"));
        co_return true;
      },
      [&](vr::TxnOutcome o) {
        outcome = o;
        done_at = w.cluster.sim().Now();
      });
  const sim::Time end = began + 2 * sim::kSecond;
  while (!outcome && w.cluster.sim().Now() < end) {
    w.cluster.RunFor(1 * sim::kMillisecond);
  }
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, vr::TxnOutcome::kCommitted);
  // Begin, call and commit request, each after a probe round: well inside
  // the one probe timeout a dead first member used to cost per lookup.
  EXPECT_LT(done_at - began, core::kProbeTimeout);
}

TEST(CoordinatorServer, AbortDiscardsEffects) {
  World w(42);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       core::CohortOptions{});
  auto outcome = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("y=9"));
    co_return false;  // client decides to abort
  });
  EXPECT_EQ(outcome, vr::TxnOutcome::kAborted);
  w.cluster.RunFor(2 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(w.cluster, w.server, "y"), "");
  // Locks released (possibly via the coordinator-server's abort or sweep):
  // a new transaction gets through.
  auto again = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("y=1"));
    co_return true;
  });
  EXPECT_EQ(again, vr::TxnOutcome::kCommitted);
}

// The coordinator-server group is the data group too: its committing
// record reaches the outcome table before its participant role applies the
// commit, which must install the value at every cohort all the same.
TEST(CoordinatorServer, CommitsWhenItIsAlsoTheDataGroup) {
  World w(44);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(),
                       w.server, core::CohortOptions{});
  auto outcome = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("x=5"));
    co_return true;
  });
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  w.cluster.RunFor(1 * sim::kSecond);
  for (core::Cohort* cohort : w.cluster.Cohorts(w.server)) {
    if (cohort->status() != core::Status::kActive) continue;
    EXPECT_EQ(cohort->objects().ReadCommitted("x").value_or(""), "5")
        << "cohort " << cohort->mid();
    EXPECT_TRUE(cohort->objects().ActiveTxns().empty())
        << "cohort " << cohort->mid();
  }
}

TEST(CoordinatorServer, VanishedClientIsSweptAndLocksFreed) {
  World w(43);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  {
    // A client that begins a transaction, touches a key, then disappears
    // without committing or aborting.
    UnreplicatedClient ghost(w.cluster.sim(), w.cluster.network(),
                             w.cluster.directory(), w.cluster.AllocateMid(),
                             w.coord, core::CohortOptions{});
    bool called = false;
    ghost.Spawn([&](ClientTxn& t) -> sim::Task<bool> {
      co_await t.Call(w.server, "put", std::string("z=ghost"));
      called = true;
      // Sleep forever (until destroyed): never commits.
      co_await sim::Sleep(w.cluster.sim().scheduler(), 3600 * sim::kSecond);
      co_return true;
    });
    while (!called) w.cluster.RunFor(10 * sim::kMillisecond);
    // Destroying the client kills the suspended coroutine — the crash.
  }
  // §3.5: "if no reply is forthcoming, it can abort the transaction
  // unilaterally." After the sweep the lock is free.
  w.cluster.RunFor(5 * sim::kSecond);
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       core::CohortOptions{});
  auto outcome = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("z=real"));
    co_return true;
  });
  EXPECT_EQ(outcome, vr::TxnOutcome::kCommitted);
  w.cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(w.cluster, w.server, "z"), "real");
}

TEST(CoordinatorServer, SurvivesCoordinatorPrimaryCrash) {
  World w(44);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       core::CohortOptions{});
  // First transaction establishes the cache; then crash the coordinator
  // primary and run another transaction — the client re-probes.
  auto first = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("k=1"));
    co_return true;
  });
  ASSERT_EQ(first, vr::TxnOutcome::kCommitted);
  for (auto* co : w.cluster.Cohorts(w.coord)) {
    if (co->IsActivePrimary()) {
      co->Crash();
      break;
    }
  }
  ASSERT_TRUE(w.cluster.RunUntilStable());
  auto second = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("k=2"));
    co_return true;
  });
  EXPECT_EQ(second, vr::TxnOutcome::kCommitted);
  w.cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(w.cluster, w.server, "k"), "2");
}

// A call to a crashed data-group primary goes unanswered; the client then
// drops its cache entry (Fig. 2: "so that the next use of the server will
// not cause an abort"), so only a transaction that still used the dead
// primary aborts, and the next ones find the new primary.
TEST(CoordinatorServer, SurvivesServerPrimaryCrash) {
  World w(46);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       core::CohortOptions{});
  auto first = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    co_await t.Call(w.server, "put", std::string("s=0"));
    co_return true;
  });
  ASSERT_EQ(first, vr::TxnOutcome::kCommitted);
  for (auto* co : w.cluster.Cohorts(w.server)) {
    if (co->IsActivePrimary()) {
      co->Crash();
      break;
    }
  }
  ASSERT_TRUE(w.cluster.RunUntilStable());
  w.cluster.RunFor(1 * sim::kSecond);

  int committed = 0;
  std::string last;
  for (int i = 1; i <= 5; ++i) {
    const std::string put = "s=" + std::to_string(i);
    auto outcome = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
      co_await t.Call(w.server, "put", put);
      co_return true;
    });
    // The first may abort: its call went to the dead primary (Fig. 2's
    // no-reply rule).
    if (outcome == vr::TxnOutcome::kCommitted) {
      ++committed;
      last = std::to_string(i);
    }
  }
  EXPECT_GE(committed, 4);
  w.cluster.RunFor(1 * sim::kSecond);
  EXPECT_EQ(test::CommittedValue(w.cluster, w.server, "s"), last);
}

TEST(CoordinatorServer, QueriesResolveThenDoneRecordGarbageCollects) {
  World w(45);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), w.cluster.AllocateMid(), w.coord,
                       core::CohortOptions{});
  vr::Aid aid{};
  auto outcome = RunClientTxn(w, c, [&](ClientTxn& t) -> sim::Task<bool> {
    aid = t.aid();
    co_await t.Call(w.server, "put", std::string("q=1"));
    co_return true;
  });
  ASSERT_EQ(outcome, vr::TxnOutcome::kCommitted);

  // §3.1 GC contract: until the done record lands the coordinator group
  // answers queries with the outcome; afterwards the entry is pruned.
  // Either answer may race in here, but "aborted" must never appear.
  vr::TxnOutcome queried = vr::TxnOutcome::kAborted;
  bool done = false;
  c.QueryOutcome(aid, [&](vr::TxnOutcome o) {
    queried = o;
    done = true;
  });
  while (!done) w.cluster.RunFor(10 * sim::kMillisecond);
  EXPECT_NE(queried, vr::TxnOutcome::kAborted);

  // After everything settles, the done record has garbage-collected the
  // outcome at every coordinator cohort.
  w.cluster.RunFor(3 * sim::kSecond);
  for (auto* cohort : w.cluster.Cohorts(w.coord)) {
    if (cohort->status() != core::Status::kActive) continue;
    EXPECT_EQ(cohort->outcomes().Lookup(aid), vr::TxnOutcome::kUnknown)
        << "cohort " << cohort->mid() << " still holds the outcome";
  }
}

// The client asks the coordinator-server's primary for an outcome through
// its primary cache. After a view change the cached primary is a backup;
// it redirects, and the client asks the new primary, which answers from the
// replicated committing record. The coordinator never sends the commit, so
// no done record garbage-collects the outcome meanwhile.
TEST(CoordinatorServer, QueryAfterAViewChangeFollowsTheRedirect) {
  World w(46);
  ASSERT_TRUE(w.cluster.RunUntilStable());
  core::Cohort* old_primary = w.cluster.AnyPrimary(w.coord);
  ASSERT_NE(old_primary, nullptr);
  old_primary->mutable_options().commit_attempts = 0;
  const vr::Mid client_mid = w.cluster.AllocateMid();
  UnreplicatedClient c(w.cluster.sim(), w.cluster.network(),
                       w.cluster.directory(), client_mid, w.coord,
                       core::CohortOptions{});
  vr::Aid aid{};
  ASSERT_EQ(RunClientTxn(w, c,
                         [&](ClientTxn& t) -> sim::Task<bool> {
                           aid = t.aid();
                           co_await t.Call(w.server, "put",
                                           std::string("q=2"));
                           co_return true;
                         }),
            vr::TxnOutcome::kCommitted);
  w.cluster.RunFor(10 * sim::kMillisecond);

  // The old primary is cut off until its group forms a view without it,
  // then rejoins as a backup.
  const auto cut = [&](bool down) {
    for (auto* other : w.cluster.Cohorts(w.coord)) {
      if (other != old_primary) {
        w.cluster.network().SetLinkDown(old_primary->mid(), other->mid(),
                                        down);
      }
    }
  };
  cut(true);
  core::Cohort* new_primary = nullptr;
  const auto run_until = [&](const std::function<bool()>& done) {
    const sim::Time end = w.cluster.sim().Now() + 5 * sim::kSecond;
    while (!done() && w.cluster.sim().Now() < end) {
      w.cluster.RunFor(1 * sim::kMillisecond);
    }
    return done();
  };
  ASSERT_TRUE(run_until([&] {
    new_primary = w.cluster.AnyPrimary(w.coord);
    return new_primary != nullptr && new_primary != old_primary;
  }));
  cut(false);
  ASSERT_TRUE(run_until([&] {
    return old_primary->status() == core::Status::kActive &&
           old_primary->cur_viewid() == new_primary->cur_viewid() &&
           new_primary->IsActivePrimary();
  }));

  std::vector<vr::Mid> asked;
  std::vector<vr::QueryReplyMsg> replies;
  w.cluster.network().set_observer([&](const net::Frame& f) {
    const auto type = static_cast<vr::MsgType>(f.type);
    if (type == vr::MsgType::kQuery && f.from == client_mid) {
      asked.push_back(f.to);
    } else if (type == vr::MsgType::kQueryReply && f.to == client_mid) {
      replies.push_back(*vr::DecodeFrame<vr::QueryReplyMsg>(f.payload));
    }
  });
  std::optional<vr::TxnOutcome> queried;
  c.QueryOutcome(aid, [&](vr::TxnOutcome o) { queried = o; });
  ASSERT_TRUE(run_until([&] { return queried.has_value(); }));
  w.cluster.network().set_observer(nullptr);
  EXPECT_EQ(*queried, vr::TxnOutcome::kCommitted);
  ASSERT_EQ(asked.size(), 2u);
  EXPECT_EQ(asked[0], old_primary->mid());
  EXPECT_EQ(asked[1], new_primary->mid());
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(core::Redirected(replies[0]));
  EXPECT_EQ(replies[0].new_view.primary, new_primary->mid());
  EXPECT_EQ(replies[1].outcome, vr::TxnOutcome::kCommitted);
}

}  // namespace
}  // namespace vsr
