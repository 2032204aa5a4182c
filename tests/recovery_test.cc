// Write-behind durable event log + crashed-cohort recovery (DESIGN.md §10).
//
// Unit tests drive storage::EventLog directly against a simulated stable
// store (group commit, torn tails, bit rot); integration tests run real
// clusters through crash/replay/rejoin — including the §4.2 majority-loss
// catastrophe that the log makes survivable (view_formation condition 4).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "check/serial.h"
#include "storage/event_log.h"
#include "storage/stable_store.h"
#include "tests/test_util.h"
#include "wire/buffer.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;
using storage::EventLog;
using storage::EventLogOptions;
using storage::StableStore;
using storage::StableStoreOptions;
using test::RegisterKvProcs;
using test::RunOneCallWithRetry;

// ---------------------------------------------------------------------------
// EventLog unit tests
// ---------------------------------------------------------------------------

EventLog::Entry E(std::uint8_t kind, std::initializer_list<std::uint8_t> p) {
  return EventLog::Entry{kind, std::vector<std::uint8_t>(p)};
}

class EventLogTest : public ::testing::Test {
 protected:
  EventLogTest() : sim_(1), store_(sim_, StoreOptions()) {}

  static StableStoreOptions StoreOptions() {
    StableStoreOptions o;
    o.force_latency = 10 * sim::kMillisecond;
    return o;
  }
  static EventLogOptions LogOptions() {
    EventLogOptions o;
    o.enabled = true;
    return o;
  }

  std::unique_ptr<EventLog> MakeLog() {
    return std::make_unique<EventLog>(sim_, store_, LogOptions(), "elog/7",
                                      /*owner=*/7);
  }
  void Settle() { sim_.scheduler().RunToQuiescence(); }

  sim::Simulation sim_;
  StableStore store_;
};

TEST_F(EventLogTest, ReplayReturnsAnchorPlusAppendsInOrder) {
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  log->Append(2, {1});
  log->Append(2, {2});
  log->Append(2, {3});
  Settle();  // flush timer fires, segment force completes

  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].kind, 1);
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0xaa});
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(entries[i].kind, 2);
    EXPECT_EQ(entries[i].payload,
              std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(log->stats().entries_rejected, 0u);
}

TEST_F(EventLogTest, AppendsBeforeFirstGenerationAreDropped) {
  auto log = MakeLog();
  log->Append(2, {1});  // no checkpoint to anchor it
  Settle();
  EXPECT_TRUE(log->Replay().empty());
}

TEST_F(EventLogTest, CrashMidGroupCommitLosesOnlyTheTail) {
  // Anchor + first batch become durable; the second batch is appended but
  // its segment force is still in flight at crash time. Replay must return
  // exactly the durable prefix.
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  log->Append(2, {1});
  Settle();  // anchor (seg 1) + batch (seg 2) durable

  log->Append(2, {2});
  log->Append(2, {3});
  sim_.scheduler().RunUntil(sim_.Now() + 6 * sim::kMillisecond);
  // Group commit fired (segment 3 issued) but force_latency has not elapsed.
  log->Crash();
  store_.DropPending(7);
  Settle();

  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0xaa});
  EXPECT_EQ(entries[1].payload, std::vector<std::uint8_t>{1});
}

TEST_F(EventLogTest, UnflushedEntriesDieWithTheCrash) {
  // Crash before the group-commit interval elapses: the pending batch was
  // never even issued. This is the documented residual loss window.
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  Settle();
  log->Append(2, {1});
  EXPECT_EQ(log->pending_entries(), 1u);
  log->Crash();
  store_.DropPending(7);
  Settle();
  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 1u);  // anchor only
}

TEST_F(EventLogTest, TornSegmentRejectedWholesale) {
  // The segment mid-flight at crash time persists its first half (torn
  // sector). Replay must reject the torn frame and everything after it,
  // keeping only intact prior segments.
  store_.set_torn_writes(true);
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  log->Append(2, std::vector<std::uint8_t>(40, 0x11));
  Settle();  // segments 1..2 durable

  log->Append(2, std::vector<std::uint8_t>(40, 0x22));
  sim_.scheduler().RunUntil(sim_.Now() + 6 * sim::kMillisecond);
  log->Crash();  // segment 3's force in flight -> torn half persists
  store_.DropPending(7);
  Settle();
  ASSERT_GE(store_.stats().torn_writes, 1u);

  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].payload, (std::vector<std::uint8_t>(40, 0x11)));
  EXPECT_GE(log->stats().entries_rejected, 1u);
}

TEST_F(EventLogTest, CrcBitFlipRejectsFromTheFlipOnward) {
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  Settle();
  log->Append(2, {1});
  Settle();  // segment 2
  log->Append(2, {2});
  Settle();  // segment 3

  // Bit rot in segment 2's body: CRC catches it; segment 3, though intact,
  // is rejected too — the log is trusted only up to the first bad byte.
  auto seg = store_.Read("elog/7/1/2");
  ASSERT_TRUE(seg.has_value());
  (*seg)[seg->size() - 1] ^= 0x01;
  store_.Poke("elog/7/1/2", *seg);

  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 1u);  // anchor only
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0xaa});
  EXPECT_GE(log->stats().entries_rejected, 1u);
}

TEST_F(EventLogTest, TornHeadReplaysNothing) {
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  log->Append(2, {1});
  Settle();
  store_.Poke("elog/7/head", {0x01, 0x00});  // truncated u64
  EXPECT_TRUE(log->Replay().empty());
  EXPECT_GE(log->stats().entries_rejected, 1u);
}

TEST_F(EventLogTest, NewGenerationSupersedesTheOld) {
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0x01}));
  log->Append(2, {1});
  Settle();
  log->BeginGeneration(E(1, {0x02}));
  log->Append(2, {9});
  Settle();

  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0x02});
  EXPECT_EQ(entries[1].payload, std::vector<std::uint8_t>{9});
}

TEST_F(EventLogTest, BeginGenerationErasesSupersededSegments) {
  // Once the new head pointer is durable, replay can never read the old
  // generation again; its segments must be erased rather than leak one
  // generation per checkpoint for the rest of the run.
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0x01}));
  log->Append(2, {1});
  Settle();
  ASSERT_TRUE(store_.Contains("elog/7/1/1"));
  ASSERT_TRUE(store_.Contains("elog/7/1/2"));

  log->BeginGeneration(E(1, {0x02}));
  // The head write is still in flight: generation 1 must stay intact (a
  // crash right now would have to replay it).
  EXPECT_TRUE(store_.Contains("elog/7/1/1"));
  Settle();
  EXPECT_FALSE(store_.Contains("elog/7/1/1"));
  EXPECT_FALSE(store_.Contains("elog/7/1/2"));
  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0x02});
}

TEST_F(EventLogTest, CrashBeforeNewHeadDurableKeepsOldGenerationIntact) {
  // The superseded generation is erased only on the new head's durability
  // callback: a crash while that write is in flight drops the callback and
  // the old generation — still named by the durable head — replays fully.
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0x01}));
  log->Append(2, {1});
  Settle();

  log->BeginGeneration(E(1, {0x02}));  // head + anchor forces in flight
  log->Crash();
  store_.DropPending(7);
  Settle();

  EXPECT_TRUE(store_.Contains("elog/7/1/1"));
  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0x01});
  EXPECT_EQ(entries[1].payload, std::vector<std::uint8_t>{1});
}

TEST_F(EventLogTest, TornHeadErasesStaleSegmentsSoGenerationReuseIsSafe) {
  // A garbled head resets the generation counter to 0, so generation
  // numbers get reused. Any segment surviving from the previous life
  // carries a valid CRC and would splice stale records contiguously after
  // the fresh anchor on the NEXT replay — inventing state. The garbled-head
  // path must therefore erase the namespace wholesale.
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  log->Append(2, {0x11});
  Settle();  // gen 1: anchor (seq 1) + append (seq 2) durable

  store_.Poke("elog/7/head", {0x01});  // torn head write
  EXPECT_TRUE(log->Replay().empty());
  EXPECT_FALSE(store_.Contains("elog/7/1/2"));  // stale segments gone

  // Recovery re-checkpoints; generation numbering restarts at 1. The old
  // life's seq-2 segment must not resurface behind the new anchor.
  log->BeginGeneration(E(1, {0xbb}));
  Settle();
  auto entries = log->Replay();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].payload, std::vector<std::uint8_t>{0xbb});
}

TEST_F(EventLogTest, BatchThresholdFlushesEarly) {
  EventLog log(sim_, store_, LogOptions(), "elog/8", 8);
  log.BeginGeneration(E(1, {0xaa}));
  Settle();
  const auto before = log.stats().segments_written;
  for (std::size_t i = 0; i < storage::kMaxLogBatch; ++i) {
    log.Append(2, {static_cast<std::uint8_t>(i)});
  }
  // The last append tripped kMaxLogBatch: flushed without waiting for the timer.
  EXPECT_EQ(log.stats().segments_written, before + 1);
  EXPECT_EQ(log.pending_entries(), 0u);
}

TEST_F(EventLogTest, ByteBudgetFlushesEarly) {
  EventLog log(sim_, store_, LogOptions(), "elog/9", 9);
  log.BeginGeneration(E(1, {0xaa}));
  Settle();
  const auto before = log.stats().segments_written;
  // Over budget alone.
  log.Append(2, std::vector<std::uint8_t>(storage::kMaxLogBatchBytes + 1, 0x55));
  EXPECT_EQ(log.stats().segments_written, before + 1);
}

TEST_F(EventLogTest, EraseModelsDiskReplacement) {
  auto log = MakeLog();
  log->BeginGeneration(E(1, {0xaa}));
  log->Append(2, {1});
  Settle();
  log->Erase();
  EXPECT_TRUE(log->Replay().empty());
  EXPECT_FALSE(store_.Contains("elog/7/head"));
}

// ---------------------------------------------------------------------------
// Cluster integration: crash, replay, rejoin
// ---------------------------------------------------------------------------

std::size_t IndexOfPrimary(Cluster& cluster, vr::GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

core::CohortOptions LoggedOptions() {
  core::CohortOptions o;
  o.event_log.enabled = true;
  return o;
}

// Group-commit interval + force latency + slack: after this long, every
// acknowledged record is durable in the local log.
constexpr sim::Duration kLogSettle = 100 * sim::kMillisecond;

TEST(Recovery, RecoveredBackupRejoinsViaRecordStream) {
  core::CohortOptions opts = LoggedOptions();
  // No elections while the backup is down, and no GC past its watermark:
  // the rejoin must be served from the record stream, not a snapshot.
  opts.liveness_timeout = 60 * sim::kSecond;
  opts.buffer.window = 1024;
  Cluster cluster(ClusterOptions{.seed = 211});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& backup = cluster.CohortAt(kv, (pi + 1) % 3);
  const vr::ViewId viewid = primary.cur_viewid();

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  cluster.RunFor(kLogSettle);

  backup.Crash();
  for (int i = 10; i < 20; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  backup.Recover();
  cluster.RunFor(2 * sim::kSecond);

  // Replayed locally, rejoined the SAME view, and caught up on the tail —
  // no view change, no snapshot.
  EXPECT_EQ(backup.stats().log_recoveries, 1u);
  EXPECT_GT(backup.stats().log_records_replayed, 0u);
  EXPECT_GE(backup.stats().rejoin_acks_sent, 1u);
  EXPECT_GE(primary.buffer().stats().rejoins, 1u);
  EXPECT_EQ(primary.cur_viewid(), viewid);
  EXPECT_EQ(backup.status(), core::Status::kActive);
  EXPECT_EQ(backup.applied_ts(), primary.buffer().last_ts());
  EXPECT_EQ(backup.stats().snapshots_installed, 0u);
  for (int i : {0, 9, 10, 19}) {
    EXPECT_EQ(backup.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i))
        << "k" << i;
  }

  // Still a working group, and the rejoined backup keeps following.
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_EQ(backup.objects().ReadCommitted("post").value_or(""), "1");
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

TEST(Recovery, RejoinBelowGcFloorFallsBackToSnapshot) {
  core::CohortOptions opts = LoggedOptions();
  opts.liveness_timeout = 60 * sim::kSecond;
  opts.buffer.window = 8;  // small: the missed tail is GC'd quickly
  Cluster cluster(ClusterOptions{.seed = 212});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& backup = cluster.CohortAt(kv, (pi + 1) % 3);

  cluster.RunFor(kLogSettle);
  backup.Crash();
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  cluster.RunFor(200 * sim::kMillisecond);
  ASSERT_LT(backup.applied_ts(), primary.buffer().base_ts())
      << "setup: the tail must have been GC'd past the crashed watermark";

  backup.Recover();
  cluster.RunFor(3 * sim::kSecond);

  EXPECT_EQ(backup.stats().log_recoveries, 1u);
  EXPECT_GE(backup.stats().snapshots_installed, 1u);
  EXPECT_EQ(backup.applied_ts(), primary.buffer().last_ts());
  // The snapshot re-validated the replayed lower bound: the cohort answers
  // view changes normally again.
  EXPECT_FALSE(backup.log_recovered());
  for (int i : {0, 20, 39}) {
    EXPECT_EQ(backup.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i));
  }
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

TEST(Recovery, RejoinSurvivesTwentyPercentLoss) {
  core::CohortOptions opts = LoggedOptions();
  opts.liveness_timeout = 60 * sim::kSecond;
  opts.buffer.window = 1024;
  Cluster cluster(ClusterOptions{.seed = 213});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& backup = cluster.CohortAt(kv, (pi + 1) % 3);

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  cluster.RunFor(kLogSettle);
  backup.Crash();
  for (int i = 10; i < 20; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }

  // Drop 20% of every frame while the backup rejoins: the re-armed rejoin
  // ack and the gap/retransmit machinery must converge anyway.
  net::NetworkOptions lossy = cluster.network().options();
  lossy.loss_probability = 0.2;
  cluster.network().set_options(lossy);
  backup.Recover();
  cluster.RunFor(5 * sim::kSecond);
  lossy.loss_probability = 0.0;
  cluster.network().set_options(lossy);
  cluster.RunFor(1 * sim::kSecond);

  EXPECT_EQ(backup.stats().log_recoveries, 1u);
  EXPECT_EQ(backup.applied_ts(), primary.buffer().last_ts());
  for (int i : {0, 9, 19}) {
    EXPECT_EQ(backup.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i));
  }
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

TEST(Recovery, RecoverDuringInProgressViewChange) {
  // Both backups crash; the primary becomes a view manager but cannot form
  // (no majority). One backup recovers from its log MID-CHANGE: its
  // recovered acceptance counts as crashed-with-state, condition (3) holds
  // (the normal primary led the crash view), and the group comes back.
  core::CohortOptions opts = LoggedOptions();
  Cluster cluster(ClusterOptions{.seed = 214});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  const vr::ViewId viewid = primary.cur_viewid();

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  cluster.RunFor(kLogSettle);

  for (std::size_t i = 0; i < 3; ++i) {
    if (i != pi) cluster.Crash(kv, i);
  }
  // Let the failure detector fire and the formation attempts start failing.
  cluster.RunFor(1 * sim::kSecond);
  ASSERT_EQ(cluster.AnyPrimary(kv), nullptr);
  ASSERT_NE(primary.status(), core::Status::kActive);

  cluster.Recover(kv, (pi + 1) % 3);
  ASSERT_TRUE(cluster.RunUntilStable(10 * sim::kSecond));
  core::Cohort* np = cluster.AnyPrimary(kv);
  ASSERT_NE(np, nullptr);
  EXPECT_GT(np->cur_viewid(), viewid);
  EXPECT_EQ(cluster.CohortAt(kv, (pi + 1) % 3).stats().log_recoveries, 1u);

  cluster.RunFor(500 * sim::kMillisecond);
  for (int i : {0, 5, 9}) {
    EXPECT_EQ(test::CommittedValue(cluster, kv, "k" + std::to_string(i)),
              "v" + std::to_string(i));
  }
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            vr::TxnOutcome::kCommitted);
}

TEST(Recovery, FullMajorityStormSurvivesWithDurableLogs) {
  // The §4.2 catastrophe, disarmed: ALL THREE cohorts crash simultaneously.
  // Without the log this group never forms a view again (see
  // ViewChange.MajorityCrashIsCatastrophicUntilRecovery); with surviving
  // disks every cohort replays, and condition 4 re-forms the view with no
  // committed data lost.
  core::CohortOptions opts = LoggedOptions();
  Cluster cluster(ClusterOptions{.seed = 215});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const vr::ViewId viewid = cluster.AnyPrimary(kv)->cur_viewid();

  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              vr::TxnOutcome::kCommitted);
  }
  cluster.RunFor(kLogSettle);  // every ack reaches a disk

  for (std::size_t i = 0; i < 3; ++i) cluster.Crash(kv, i);
  for (std::size_t i = 0; i < 3; ++i) cluster.Recover(kv, i);

  ASSERT_TRUE(cluster.RunUntilStable(10 * sim::kSecond));
  core::Cohort* np = cluster.AnyPrimary(kv);
  ASSERT_NE(np, nullptr);
  EXPECT_GT(np->cur_viewid(), viewid);
  for (auto* c : cluster.Cohorts(kv)) {
    EXPECT_EQ(c->stats().log_recoveries, 1u) << "cohort " << c->mid();
  }

  cluster.RunFor(500 * sim::kMillisecond);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(test::CommittedValue(cluster, kv, "k" + std::to_string(i)),
              "v" + std::to_string(i))
        << "k" << i << " lost in the storm";
  }
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

TEST(Recovery, MixedDisklessStormRemainsCatastrophic) {
  // One of the three disks is replaced: its cohort recovers amnesiac, so
  // condition 4's "every acceptance bears state" fails and the storm stays
  // a catastrophe — no view forms, and crucially no WRONG view forms.
  core::CohortOptions opts = LoggedOptions();
  Cluster cluster(ClusterOptions{.seed = 216});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "k=v"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(kLogSettle);

  for (std::size_t i = 0; i < 3; ++i) cluster.Crash(kv, i);
  cluster.Recover(kv, 0);
  cluster.Recover(kv, 1);
  cluster.RecoverDiskless(kv, 2);

  EXPECT_FALSE(cluster.RunUntilStable(5 * sim::kSecond));
  EXPECT_EQ(cluster.AnyPrimary(kv), nullptr);
}

TEST(Recovery, DisklessRecoveryOfAllIsStillSafe) {
  // Every disk replaced: identical to the paper's volatile configuration.
  core::CohortOptions opts = LoggedOptions();
  Cluster cluster(ClusterOptions{.seed = 217});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  for (std::size_t i = 0; i < 3; ++i) cluster.Crash(kv, i);
  for (std::size_t i = 0; i < 3; ++i) cluster.RecoverDiskless(kv, i);
  EXPECT_FALSE(cluster.RunUntilStable(5 * sim::kSecond));
  EXPECT_EQ(cluster.AnyPrimary(kv), nullptr);
}

// ---------------------------------------------------------------------------
// Storm soak: repeated majority-loss storms with a serializability chain
// ---------------------------------------------------------------------------

TEST(StormSoak, RepeatedStormsStaySerializable) {
  const char* soak_env = std::getenv("CHECK_SOAK");
  const bool long_run = soak_env != nullptr && soak_env[0] == '1';
  const int storms = long_run ? 20 : 5;
  const int txns_per_round = 3;

  core::CohortOptions opts = LoggedOptions();
  Cluster cluster(ClusterOptions{.seed = 218});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  cluster.RegisterProc(
      kv, "rmw",
      [](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
        auto prev = co_await ctx.ReadForUpdate("r");
        co_await ctx.Write("r", ctx.ArgsAsString());
        co_return test::Bytes(prev.value_or(""));
      });
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  check::RegisterChainChecker chain;
  int next_value = 0;
  // One rmw through the client primary; returns true if it committed and
  // feeds the chain checker.
  auto run_rmw = [&]() {
    core::Cohort* cp = cluster.AnyPrimary(client_g);
    if (cp == nullptr) return false;
    const std::string value = "v" + std::to_string(next_value++);
    struct State {
      std::string prev;
      bool have = false, resolved = false;
      vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
    };
    auto st = std::make_shared<State>();
    cp->SpawnTransaction(
        [st, kv, value](core::TxnHandle& h) -> sim::Task<bool> {
          auto r = co_await h.Call(kv, "rmw", value);
          st->prev = test::Str(r);
          st->have = true;
          co_return true;
        },
        [st](vr::TxnOutcome o) {
          st->resolved = true;
          st->outcome = o;
        });
    const sim::Time deadline = cluster.sim().Now() + 5 * sim::kSecond;
    while (!st->resolved && cluster.sim().Now() < deadline) {
      cluster.RunFor(10 * sim::kMillisecond);
    }
    if (st->resolved && st->outcome == vr::TxnOutcome::kCommitted) {
      EXPECT_TRUE(st->have);
      chain.NoteCommitted(st->prev, value);
      return true;
    }
    if (!st->resolved || st->outcome == vr::TxnOutcome::kUnknown) {
      if (st->have) chain.NoteUnknown(st->prev, value);
    }
    return false;
  };

  for (int storm = 0; storm < storms; ++storm) {
    int committed = 0;
    for (int t = 0; t < txns_per_round * 3 && committed < txns_per_round;
         ++t) {
      if (run_rmw()) ++committed;
    }
    ASSERT_GT(committed, 0) << "storm " << storm;
    // Give the write-behind log its group-commit window before pulling the
    // plug on everyone — acknowledgements inside the window may be lost
    // (the documented residual trade), which would break the chain.
    cluster.RunFor(kLogSettle);

    for (std::size_t i = 0; i < 3; ++i) cluster.Crash(kv, i);
    for (std::size_t i = 0; i < 3; ++i) cluster.Recover(kv, i);
    ASSERT_TRUE(cluster.RunUntilStable(20 * sim::kSecond))
        << "storm " << storm << ": group never re-formed";
    for (const std::string& v : check::CheckInstant(cluster, kv)) {
      ADD_FAILURE() << "storm " << storm << ": " << v;
    }
  }

  cluster.RunFor(2 * sim::kSecond);
  core::Cohort* p = cluster.AnyPrimary(kv);
  ASSERT_NE(p, nullptr);
  std::string why;
  EXPECT_TRUE(
      chain.Validate("", p->objects().ReadCommitted("r").value_or(""), &why))
      << why;
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace vsr
