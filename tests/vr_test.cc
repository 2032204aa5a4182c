// Unit tests for the VR primitives: viewids/viewstamps, histories, psets
// (compatible / vs_max), and the communication buffer with force-to.
#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulation.h"
#include "vr/comm_buffer.h"
#include "vr/history.h"
#include "vr/types.h"

namespace vsr::vr {
namespace {

TEST(ViewIdOrder, TotalOrderByCounterThenMid) {
  EXPECT_LT((ViewId{1, 5}), (ViewId{2, 1}));
  EXPECT_LT((ViewId{2, 1}), (ViewId{2, 2}));
  EXPECT_EQ((ViewId{3, 3}), (ViewId{3, 3}));
  // Concurrent managers always produce distinct viewids: same counter,
  // different mids.
  EXPECT_NE((ViewId{4, 1}), (ViewId{4, 2}));
}

TEST(ViewstampOrder, LexicographicOnViewThenTs) {
  EXPECT_LT((Viewstamp{{1, 1}, 99}), (Viewstamp{{2, 1}, 0}));
  EXPECT_LT((Viewstamp{{2, 1}, 3}), (Viewstamp{{2, 1}, 4}));
}

TEST(Majority, Arithmetic) {
  EXPECT_EQ(MajorityOf(1), 1u);
  EXPECT_EQ(MajorityOf(2), 2u);
  EXPECT_EQ(MajorityOf(3), 2u);
  EXPECT_EQ(MajorityOf(5), 3u);
  EXPECT_EQ(MajorityOf(7), 4u);
  EXPECT_EQ(SubMajorityOf(3), 1u);
  EXPECT_EQ(SubMajorityOf(5), 2u);
  EXPECT_EQ(SubMajorityOf(1), 0u);
}

TEST(ViewMembership, ContainsAndSize) {
  View v{1, {2, 3}};
  EXPECT_TRUE(v.Contains(1));
  EXPECT_TRUE(v.Contains(3));
  EXPECT_FALSE(v.Contains(4));
  EXPECT_EQ(v.Size(), 3u);
  EXPECT_EQ(v.Members(), (std::vector<Mid>{1, 2, 3}));
}

TEST(History, KnowsImplementsPerViewPrefix) {
  History h;
  h.OpenView({1, 1});
  h.Advance(5);
  h.OpenView({2, 3});
  h.Advance(2);

  // "the cohort's state reflects event e from view v.id iff e's timestamp is
  //  less than or equal to v.ts."
  EXPECT_TRUE(h.Knows({{1, 1}, 5}));
  EXPECT_TRUE(h.Knows({{1, 1}, 1}));
  EXPECT_FALSE(h.Knows({{1, 1}, 6}));
  EXPECT_TRUE(h.Knows({{2, 3}, 2}));
  EXPECT_FALSE(h.Knows({{2, 3}, 3}));
  EXPECT_FALSE(h.Knows({{3, 1}, 1}));  // unknown view
  EXPECT_EQ(h.Latest(), (Viewstamp{{2, 3}, 2}));
}

TEST(History, EmptyHistoryReportsZeroViewstamp) {
  History h;
  EXPECT_TRUE(h.Empty());
  EXPECT_EQ(h.Latest(), Viewstamp{});
  EXPECT_FALSE(h.Knows({{0, 0}, 1}));
}

TEST(History, RoundTrip) {
  History h;
  h.OpenView({1, 2});
  h.Advance(7);
  h.OpenView({4, 1});
  const auto bytes = wire::Encode(h);
  wire::Reader r(bytes);
  const auto out = r.Read<History>();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out.entries(), h.entries());
}

TEST(Pset, CompatibleRequiresAllEntriesCovered) {
  History h;
  h.OpenView({1, 1});
  h.Advance(10);

  Pset ps{{5, {{1, 1}, 7}, 0}, {5, {{1, 1}, 10}, 0}};
  EXPECT_TRUE(Compatible(ps, 5, h));

  ps.push_back({5, {{1, 1}, 11}, 0});  // beyond the history watermark
  EXPECT_FALSE(Compatible(ps, 5, h));
}

TEST(Pset, CompatibleIgnoresOtherGroups) {
  History h;
  h.OpenView({1, 1});
  h.Advance(1);
  Pset ps{{9, {{8, 8}, 99}, 0}};  // entry for group 9, not 5
  EXPECT_TRUE(Compatible(ps, 5, h));
}

TEST(Pset, CompatibleFailsAcrossLostView) {
  // The participant's history skipped view {2,2} (events there were lost in
  // a view change): entries from that view must fail the check.
  History h;
  h.OpenView({1, 1});
  h.Advance(4);
  h.OpenView({3, 1});
  h.Advance(2);
  Pset ps{{5, {{2, 2}, 1}, 0}};
  EXPECT_FALSE(Compatible(ps, 5, h));
}

TEST(Pset, VsMaxPicksLargestForGroup) {
  Pset ps{{5, {{1, 1}, 7}, 0}, {5, {{2, 1}, 3}, 0}, {6, {{9, 9}, 99}, 0}};
  auto m = VsMax(ps, 5);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, (Viewstamp{{2, 1}, 3}));
  EXPECT_FALSE(VsMax(ps, 7).has_value());
}

TEST(Pset, MergeDeduplicates) {
  Pset a{{5, {{1, 1}, 1}, 0}};
  Pset b{{5, {{1, 1}, 1}, 0}, {6, {{1, 1}, 2}, 0}};
  MergePset(a, b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Pset, EraseSubRemovesAttemptEverywhere) {
  Pset ps{{5, {{1, 1}, 1}, 1}, {6, {{1, 1}, 2}, 1}, {5, {{1, 1}, 3}, 2}};
  ErasePsetSub(ps, 1);
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].sub, 2u);
}

TEST(Pset, GroupsExtractsDistinctParticipants) {
  Pset ps{{5, {{1, 1}, 1}, 0}, {6, {{1, 1}, 2}, 0}, {5, {{1, 1}, 3}, 1}};
  EXPECT_EQ(PsetGroups(ps), (std::vector<GroupId>{5, 6}));
}

// ---------------------------------------------------------------------------
// Communication buffer
// ---------------------------------------------------------------------------

class CommBufferTest : public ::testing::Test {
 protected:
  CommBufferTest()
      : sim_(1),
        buffer_(
            sim_, options_, [this](Mid to, const BufferBatchMsg& b) { sent_.emplace_back(to, b); },
            [this] { ++force_failures_; }) {
    history_.OpenView(viewid_);
    buffer_.StartView(viewid_, {2, 3}, 3, /*group=*/1, /*self=*/1, &history_);
  }

  EventRecord Rec() { return EventRecord::Done(Aid{1, viewid_, 1}); }

  void Ack(Mid from, std::uint64_t ts) {
    BufferAckMsg a;
    a.group = 1;
    a.viewid = viewid_;
    a.from = from;
    a.ts = ts;
    buffer_.OnAck(a);
  }

  CommBufferOptions options_;
  sim::Simulation sim_;
  ViewId viewid_{1, 1};
  History history_;
  std::vector<std::pair<Mid, BufferBatchMsg>> sent_;
  int force_failures_ = 0;
  CommBuffer buffer_;
};

TEST_F(CommBufferTest, AddAssignsIncreasingTimestampsAndAdvancesHistory) {
  Viewstamp v1 = buffer_.Add(Rec());
  Viewstamp v2 = buffer_.Add(Rec());
  EXPECT_EQ(v1.ts, 1u);
  EXPECT_EQ(v2.ts, 2u);
  EXPECT_EQ(v1.view, viewid_);
  EXPECT_EQ(history_.Latest().ts, 2u);
}

TEST_F(CommBufferTest, BackgroundFlushDeliversToAllBackups) {
  buffer_.Add(Rec());
  EXPECT_TRUE(sent_.empty());  // write ≠ send: background mode
  sim_.scheduler().RunUntil(options_.flush_delay + 1);
  ASSERT_GE(sent_.size(), 2u);
  std::set<Mid> targets;
  for (auto& [to, b] : sent_) targets.insert(to);
  EXPECT_EQ(targets, (std::set<Mid>{2, 3}));
}

TEST_F(CommBufferTest, ForceCompletesOnSubMajorityAck) {
  Viewstamp v = buffer_.Add(Rec());
  bool done = false, ok = false;
  buffer_.ForceTo(v, [&](bool o) {
    done = true;
    ok = o;
  });
  EXPECT_FALSE(done);  // no acks yet
  Ack(2, 1);           // sub-majority of 3 is 1 backup
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
}

TEST_F(CommBufferTest, ForceForOtherViewReturnsImmediately) {
  bool done = false, ok = false;
  buffer_.ForceTo({{0, 9}, 5}, [&](bool o) {
    done = true;
    ok = o;
  });
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
}

TEST_F(CommBufferTest, ForceAlreadyStableIsImmediate) {
  Viewstamp v = buffer_.Add(Rec());
  Ack(2, 1);
  bool done = false;
  buffer_.ForceTo(v, [&](bool) { done = true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(buffer_.stats().forces_immediate, 1u);
}

TEST_F(CommBufferTest, ForceTimesOutWithoutAcks) {
  Viewstamp v = buffer_.Add(Rec());
  bool done = false, ok = true;
  buffer_.ForceTo(v, [&](bool o) {
    done = true;
    ok = o;
  });
  sim_.scheduler().RunUntil(kForceTimeout * 2);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(force_failures_, 1);
}

TEST_F(CommBufferTest, StableTsIsKthHighestAck) {
  buffer_.Add(Rec());
  buffer_.Add(Rec());
  buffer_.Add(Rec());
  EXPECT_EQ(buffer_.StableTs(), 0u);
  Ack(2, 2);
  EXPECT_EQ(buffer_.StableTs(), 2u);  // submajority=1: highest single ack
  Ack(3, 3);
  EXPECT_EQ(buffer_.StableTs(), 3u);
}

TEST_F(CommBufferTest, RetransmitsUnackedRecords) {
  buffer_.Add(Rec());
  sim_.scheduler().RunUntil(kRetransmitInterval * 3);
  // At least two transmissions to each backup (initial flush + retransmit).
  int to_backup2 = 0;
  for (auto& [to, b] : sent_) to_backup2 += to == 2 ? 1 : 0;
  EXPECT_GE(to_backup2, 2);
  // Acked backups stop receiving retransmissions.
  sent_.clear();
  Ack(2, 1);
  Ack(3, 1);
  sim_.scheduler().RunUntil(sim_.Now() + kRetransmitInterval * 3);
  EXPECT_TRUE(sent_.empty());
}

TEST_F(CommBufferTest, BatchesStartAfterAckedPrefix) {
  buffer_.Add(Rec());
  buffer_.Add(Rec());
  Ack(2, 1);
  sent_.clear();
  sim_.scheduler().RunUntil(sim_.Now() + kRetransmitInterval + 1);
  bool saw = false;
  for (auto& [to, b] : sent_) {
    if (to != 2) continue;
    saw = true;
    ASSERT_FALSE(b.events.empty());
    EXPECT_EQ(b.events.front().ts, 2u);  // resumes after the acked prefix
  }
  EXPECT_TRUE(saw);
}

TEST_F(CommBufferTest, StaleViewAcksIgnored) {
  Viewstamp v = buffer_.Add(Rec());
  BufferAckMsg stale;
  stale.group = 1;
  stale.viewid = {0, 7};  // wrong view
  stale.from = 2;
  stale.ts = 5;
  buffer_.OnAck(stale);
  bool done = false;
  buffer_.ForceTo(v, [&](bool) { done = true; });
  EXPECT_FALSE(done);
}

TEST_F(CommBufferTest, ForceAfterStopFails) {
  Viewstamp v = buffer_.Add(Rec());
  buffer_.Stop();
  bool done = false, ok = true;
  buffer_.ForceTo(v, [&](bool o) {
    done = true;
    ok = o;
  });
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);  // never replicated: not durable
  // A viewstamp of another view still completes true ("returns immediately"):
  // its durability was settled by that view, not by this buffer.
  done = false;
  ok = false;
  buffer_.ForceTo({{0, 9}, 5}, [&](bool o) {
    done = true;
    ok = o;
  });
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
}

TEST_F(CommBufferTest, DuplicateAckIsIdempotent) {
  buffer_.Add(Rec());
  buffer_.Add(Rec());
  Ack(2, 2);
  const std::uint64_t stable = buffer_.StableTs();
  const std::uint64_t sent_before = buffer_.stats().records_sent;
  Ack(2, 2);  // duplicate
  Ack(2, 1);  // regression: a stale ack must not move the cursor backwards
  EXPECT_EQ(buffer_.StableTs(), stable);
  EXPECT_EQ(buffer_.AckedTs(2), 2u);
  EXPECT_EQ(buffer_.stats().records_sent, sent_before);
  EXPECT_EQ(buffer_.stats().acks_rejected, 0u);
}

TEST_F(CommBufferTest, DuplicateRejoinAckForServicedEpochIsIgnored) {
  buffer_.Add(Rec());
  buffer_.Add(Rec());
  buffer_.Add(Rec());
  // Recovery episode 100: backup 2 rejoins at ts 1; the primary rewinds its
  // cursors and restreams the tail.
  BufferAckMsg rejoin;
  rejoin.group = 1;
  rejoin.viewid = viewid_;
  rejoin.from = 2;
  rejoin.ts = 1;
  rejoin.rejoin = true;
  rejoin.rejoin_epoch = 100;
  buffer_.OnAck(rejoin);
  EXPECT_EQ(buffer_.stats().rejoins, 1u);
  EXPECT_EQ(buffer_.AckedTs(2), 1u);
  // The backup catches up past the rewound point...
  Ack(2, 3);
  const std::uint64_t sent_before = buffer_.stats().records_sent;
  // ...then a delayed retransmission of the SAME episode lands. It must not
  // rewind the cursors or restream anything — the episode was serviced.
  buffer_.OnAck(rejoin);
  EXPECT_EQ(buffer_.stats().rejoins_ignored, 1u);
  EXPECT_EQ(buffer_.AckedTs(2), 3u);
  EXPECT_EQ(buffer_.stats().records_sent, sent_before);
  // A later epoch is a new recovery episode: the backup really crashed
  // again, so the rewind (even further back) is honored.
  rejoin.rejoin_epoch = 200;
  rejoin.ts = 0;
  buffer_.OnAck(rejoin);
  EXPECT_EQ(buffer_.stats().rejoins, 2u);
  EXPECT_EQ(buffer_.AckedTs(2), 0u);
  // Epoch 0 (unspecified) is always honored but never lowers the floor:
  // the tagged episode 100 stays ignored afterwards.
  Ack(2, 3);
  rejoin.rejoin_epoch = 0;
  rejoin.ts = 2;
  buffer_.OnAck(rejoin);
  EXPECT_EQ(buffer_.stats().rejoins, 3u);
  EXPECT_EQ(buffer_.AckedTs(2), 2u);
  rejoin.rejoin_epoch = 100;
  buffer_.OnAck(rejoin);
  EXPECT_EQ(buffer_.stats().rejoins_ignored, 2u);
}

TEST_F(CommBufferTest, RejectsForeignAndCorruptAcks) {
  buffer_.Add(Rec());
  BufferAckMsg a;
  a.viewid = viewid_;
  a.group = 1;
  a.from = 9;  // not a backup of this view
  a.ts = 1;
  buffer_.OnAck(a);
  a.from = 2;
  a.group = 7;  // wrong group
  buffer_.OnAck(a);
  a.group = 1;
  a.ts = 99;  // beyond last_ts(): corrupt or misrouted
  buffer_.OnAck(a);
  EXPECT_EQ(buffer_.stats().acks_rejected, 3u);
  EXPECT_EQ(buffer_.StableTs(), 0u);
  EXPECT_EQ(buffer_.AckedTs(2), 0u);
}

TEST_F(CommBufferTest, HealthyBackupsNeverReceiveARecordTwice) {
  // Prompt acks: every record crosses the wire exactly once per backup.
  for (int i = 0; i < 10; ++i) {
    buffer_.Add(Rec());
    sim_.scheduler().RunUntil(sim_.Now() + options_.flush_delay + 1);
    Ack(2, buffer_.last_ts());
    Ack(3, buffer_.last_ts());
  }
  sim_.scheduler().RunUntil(sim_.Now() + kRetransmitInterval * 3);
  EXPECT_EQ(buffer_.stats().records_sent, 20u);  // 10 records × 2 backups
  EXPECT_EQ(buffer_.stats().records_retransmitted, 0u);
  EXPECT_EQ(buffer_.stats().retransmit_timeouts, 0u);
}

TEST_F(CommBufferTest, OnlyStalledBackupGetsRetransmission) {
  buffer_.Add(Rec());
  sim_.scheduler().RunUntil(options_.flush_delay + 1);
  Ack(2, 1);  // backup 2 healthy; backup 3 silent
  sent_.clear();
  sim_.scheduler().RunUntil(sim_.Now() + kRetransmitInterval * 2);
  ASSERT_FALSE(sent_.empty());
  for (auto& [to, b] : sent_) EXPECT_EQ(to, 3u);
  EXPECT_GE(buffer_.stats().retransmit_timeouts, 1u);
}

TEST_F(CommBufferTest, GapRequestResendsExactlyTheHole) {
  for (int i = 0; i < 5; ++i) buffer_.Add(Rec());
  sim_.scheduler().RunUntil(options_.flush_delay + 1);  // all five in flight
  sent_.clear();
  // Backup 2 applied ts 1–2 and then received 4–5: it asks for exactly ts 3.
  BufferAckMsg a;
  a.group = 1;
  a.viewid = viewid_;
  a.from = 2;
  a.ts = 2;
  a.gap = true;
  a.gap_hi = 3;
  buffer_.OnAck(a);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].first, 2u);
  ASSERT_EQ(sent_[0].second.events.size(), 1u);
  EXPECT_EQ(sent_[0].second.events[0].ts, 3u);
  EXPECT_EQ(buffer_.stats().gap_requests, 1u);
  // The same hole is not filled twice while the ack stands still.
  buffer_.OnAck(a);
  EXPECT_EQ(buffer_.stats().gap_requests, 1u);
  EXPECT_EQ(sent_.size(), 1u);
}

TEST_F(CommBufferTest, GarbageCollectsBelowAllAckedWatermark) {
  for (int i = 0; i < 4; ++i) buffer_.Add(Rec());
  sim_.scheduler().RunUntil(options_.flush_delay + 1);
  Ack(2, 3);
  EXPECT_EQ(buffer_.base_ts(), 0u);  // backup 3 still owes everything
  Ack(3, 2);
  EXPECT_EQ(buffer_.base_ts(), 2u);  // min-ack watermark
  ASSERT_EQ(buffer_.records().size(), 2u);
  EXPECT_EQ(buffer_.records().front().ts, 3u);
  EXPECT_EQ(buffer_.stats().records_gced, 2u);
  Ack(2, 4);
  Ack(3, 4);
  EXPECT_TRUE(buffer_.records().empty());
  EXPECT_EQ(buffer_.base_ts(), 4u);
  // Timestamps keep advancing past the released prefix.
  EXPECT_EQ(buffer_.Add(Rec()).ts, 5u);
}

TEST_F(CommBufferTest, DeadBackupNoLongerPinsGarbageCollection) {
  // Regression (DESIGN.md §9): before snapshot catch-up, one dead backup
  // pinned the min-ack GC watermark at its last ack and records_ grew with
  // its lag. Now GC releases records more than `window` below the stable
  // watermark and the laggard is routed through state transfer.
  CommBufferOptions o;
  o.window = 4;
  std::vector<Mid> snapshot_requests;
  History h;
  ViewId vid{2, 1};
  h.OpenView(vid);
  CommBuffer b(
      sim_, o, [](Mid, const BufferBatchMsg&) {}, [] {},
      [&](Mid m) { snapshot_requests.push_back(m); });
  b.StartView(vid, {2, 3}, 3, /*group=*/1, /*self=*/1, &h);
  auto ack = [&](Mid from, std::uint64_t ts) {
    BufferAckMsg a;
    a.group = 1;
    a.viewid = vid;
    a.from = from;
    a.ts = ts;
    b.OnAck(a);
  };
  for (int i = 0; i < 20; ++i) b.Add(EventRecord::Done(Aid{1, vid, 1}));
  sim_.scheduler().RunUntil(sim_.Now() + o.flush_delay + 1);
  ack(2, 20);  // backup 2 healthy; backup 3 dead (never acks)
  // StableTs (sub-majority of 3 = 1 backup) is 20: the floor releases all
  // but the last `window` records even though backup 3 acked nothing.
  EXPECT_EQ(b.base_ts(), 16u);
  EXPECT_LE(b.records().size(), o.window);
  // The dead backup's go-back-N deadline routes it into state transfer: one
  // snapshot request per episode, and no more record retransmissions.
  sim_.scheduler().RunUntil(sim_.Now() + kRetransmitInterval * 3);
  ASSERT_EQ(snapshot_requests.size(), 1u);
  EXPECT_EQ(snapshot_requests[0], 3u);
  EXPECT_EQ(b.stats().snapshots_served, 1u);
  // Memory stays O(window) as the stream keeps flowing.
  for (int i = 0; i < 20; ++i) b.Add(EventRecord::Done(Aid{1, vid, 1}));
  ack(2, 40);
  EXPECT_EQ(b.base_ts(), 36u);
  EXPECT_LE(b.records().size(), o.window);
  // The backup installs the snapshot (ack at the snapshot ts, inside the
  // resident range): state transfer ends and min-ack GC resumes.
  ack(3, 40);
  EXPECT_EQ(b.base_ts(), 40u);
  EXPECT_TRUE(b.records().empty());
  b.Stop();
}

TEST_F(CommBufferTest, SnapshotCatchupOffKeepsMinAckGc) {
  // Ablation A6: with snapshot_catchup disabled the seed behavior is intact —
  // GC never passes the slowest backup's ack.
  CommBufferOptions o;
  o.window = 4;
  o.snapshot_catchup = false;
  History h;
  ViewId vid{2, 1};
  h.OpenView(vid);
  CommBuffer b(
      sim_, o, [](Mid, const BufferBatchMsg&) {}, [] {});
  b.StartView(vid, {2, 3}, 3, /*group=*/1, /*self=*/1, &h);
  for (int i = 0; i < 20; ++i) b.Add(EventRecord::Done(Aid{1, vid, 1}));
  BufferAckMsg a;
  a.group = 1;
  a.viewid = vid;
  a.from = 2;
  a.ts = 20;
  b.OnAck(a);
  EXPECT_EQ(b.base_ts(), 0u);  // pinned by backup 3
  EXPECT_EQ(b.records().size(), 20u);
  EXPECT_EQ(b.stats().snapshots_served, 0u);
  b.Stop();
}

TEST_F(CommBufferTest, LostGapResendIsReRequestedAfterDeadline) {
  // Regression (bugfix sweep): gap_resent_hi used to suppress every repeated
  // nack for the same hole forever, so a LOST gap resend left the backup
  // waiting out the full go-back-N deadline. A repeated nack arriving after
  // the gap deadline (half a retransmit interval) is honored again.
  for (int i = 0; i < 5; ++i) buffer_.Add(Rec());
  sim_.scheduler().RunUntil(options_.flush_delay + 1);
  sent_.clear();
  BufferAckMsg a;
  a.group = 1;
  a.viewid = viewid_;
  a.from = 2;
  a.ts = 2;
  a.gap = true;
  a.gap_hi = 3;
  buffer_.OnAck(a);
  EXPECT_EQ(buffer_.stats().gap_requests, 1u);
  ASSERT_EQ(sent_.size(), 1u);
  // The resend is lost in flight; an immediate duplicate nack stays
  // suppressed (it raced the resend)...
  buffer_.OnAck(a);
  EXPECT_EQ(buffer_.stats().gap_requests, 1u);
  EXPECT_EQ(sent_.size(), 1u);
  // ...but once the gap deadline passes, the repeated nack means the resend
  // itself was lost: honor it now, well before the go-back-N deadline.
  sim_.scheduler().RunUntil(sim_.Now() + kRetransmitInterval / 2 + 1);
  buffer_.OnAck(a);
  EXPECT_EQ(buffer_.stats().gap_requests, 2u);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[1].second.events.front().ts, 3u);
  EXPECT_EQ(buffer_.stats().retransmit_timeouts, 0u);
}

TEST_F(CommBufferTest, WindowLimitsInFlightRecords) {
  CommBufferOptions small = options_;
  small.window = 2;
  std::vector<std::pair<Mid, BufferBatchMsg>> sent;
  History h;
  ViewId vid{3, 1};
  h.OpenView(vid);
  CommBuffer b(
      sim_, small,
      [&](Mid to, const BufferBatchMsg& m) { sent.emplace_back(to, m); },
      [] {});
  b.StartView(vid, {2, 3}, 3, 1, 1, &h);
  for (int i = 0; i < 5; ++i) b.Add(EventRecord::Done(Aid{1, vid, 1}));
  sim_.scheduler().RunUntil(sim_.Now() + small.flush_delay + 1);
  auto highest_sent_to = [&](Mid backup) {
    std::uint64_t hi = 0;
    for (auto& [to, m] : sent) {
      if (to != backup) continue;
      for (auto& r : m.events) hi = std::max(hi, r.ts);
    }
    return hi;
  };
  EXPECT_EQ(highest_sent_to(2), 2u);  // window full at two unacked records
  EXPECT_GE(b.stats().window_stalls, 1u);
  // An ack frees window space and the stalled backup resumes immediately.
  BufferAckMsg a;
  a.group = 1;
  a.viewid = vid;
  a.from = 2;
  a.ts = 2;
  b.OnAck(a);
  EXPECT_EQ(highest_sent_to(2), 4u);
  b.Stop();
}

TEST_F(CommBufferTest, SingleCohortGroupForcesImmediately) {
  History h1;
  ViewId vid{2, 9};
  h1.OpenView(vid);
  CommBuffer solo(
      sim_, options_, [](Mid, const BufferBatchMsg&) {}, [] {});
  solo.StartView(vid, {}, 1, 1, 9, &h1);
  Viewstamp v = solo.Add(EventRecord::Done(Aid{}));
  bool ok = false;
  solo.ForceTo(v, [&](bool o) { ok = o; });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace vsr::vr
