// Unit tests for the transaction substrate: strict-2PL locking, tentative
// versions, subaction discard, backup-side effect application, snapshots.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "txn/object_store.h"
#include "txn/outcomes.h"

namespace vsr::txn {
namespace {

using vr::Aid;
using vr::LockMode;
using vr::ObjectEffect;
using vr::SubAid;

Aid A(std::uint64_t seq) { return Aid{1, {1, 1}, seq}; }

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : sim_(1), store_(sim_) {}
  sim::Simulation sim_;
  ObjectStore store_;
};

TEST_F(ObjectStoreTest, ReadLocksShare) {
  EXPECT_TRUE(store_.TryAcquire("x", A(1), LockMode::kRead));
  EXPECT_TRUE(store_.TryAcquire("x", A(2), LockMode::kRead));
  EXPECT_TRUE(store_.HoldsLock("x", A(1), LockMode::kRead));
  EXPECT_TRUE(store_.HoldsLock("x", A(2), LockMode::kRead));
}

TEST_F(ObjectStoreTest, WriteLockExcludes) {
  EXPECT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  EXPECT_FALSE(store_.TryAcquire("x", A(2), LockMode::kRead));
  EXPECT_FALSE(store_.TryAcquire("x", A(2), LockMode::kWrite));
}

TEST_F(ObjectStoreTest, ReadBlocksWriteBySomeoneElse) {
  EXPECT_TRUE(store_.TryAcquire("x", A(1), LockMode::kRead));
  EXPECT_FALSE(store_.TryAcquire("x", A(2), LockMode::kWrite));
}

TEST_F(ObjectStoreTest, OwnUpgradeWhenSoleHolder) {
  EXPECT_TRUE(store_.TryAcquire("x", A(1), LockMode::kRead));
  EXPECT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  EXPECT_TRUE(store_.HoldsLock("x", A(1), LockMode::kWrite));
}

TEST_F(ObjectStoreTest, UpgradeBlockedByOtherReader) {
  EXPECT_TRUE(store_.TryAcquire("x", A(1), LockMode::kRead));
  EXPECT_TRUE(store_.TryAcquire("x", A(2), LockMode::kRead));
  EXPECT_FALSE(store_.TryAcquire("x", A(1), LockMode::kWrite));
}

TEST_F(ObjectStoreTest, WaiterGrantedOnRelease) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  bool granted = false;
  store_.Acquire("x", A(2), LockMode::kWrite, 1000, [&](bool ok) {
    granted = ok;
  });
  EXPECT_FALSE(granted);
  store_.Abort(A(1));
  EXPECT_TRUE(granted);
}

TEST_F(ObjectStoreTest, WaiterTimesOut) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  bool done = false, ok = true;
  store_.Acquire("x", A(2), LockMode::kWrite, 100, [&](bool o) {
    done = true;
    ok = o;
  });
  sim_.scheduler().RunUntil(200);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(store_.stats().wait_timeouts, 1u);
}

TEST_F(ObjectStoreTest, FifoFairnessWithReadSharing) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  std::vector<int> grants;
  store_.Acquire("x", A(2), LockMode::kRead, 10000,
                 [&](bool ok) { if (ok) grants.push_back(2); });
  store_.Acquire("x", A(3), LockMode::kRead, 10000,
                 [&](bool ok) { if (ok) grants.push_back(3); });
  store_.Acquire("x", A(4), LockMode::kWrite, 10000,
                 [&](bool ok) { if (ok) grants.push_back(4); });
  store_.Commit(A(1));
  // Both readers admitted together; the writer stays blocked behind them.
  EXPECT_EQ(grants, (std::vector<int>{2, 3}));
  store_.Commit(A(2));
  store_.Commit(A(3));
  EXPECT_EQ(grants, (std::vector<int>{2, 3, 4}));
}

TEST_F(ObjectStoreTest, CommitInstallsLatestTentative) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  EXPECT_TRUE(store_.WriteTentative("x", {A(1), 0}, "v1"));
  EXPECT_TRUE(store_.WriteTentative("x", {A(1), 0}, "v2"));
  EXPECT_EQ(store_.Read("x", A(1)).value_or(""), "v2");
  EXPECT_FALSE(store_.ReadCommitted("x").has_value());
  store_.Commit(A(1));
  EXPECT_EQ(store_.ReadCommitted("x").value_or(""), "v2");
  EXPECT_EQ(store_.lock_count(), 0u);
  EXPECT_EQ(store_.tentative_count(), 0u);
}

TEST_F(ObjectStoreTest, AbortDiscardsTentative) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  store_.WriteTentative("x", {A(1), 0}, "dirty");
  store_.Abort(A(1));
  EXPECT_FALSE(store_.ReadCommitted("x").has_value());
  EXPECT_EQ(store_.lock_count(), 0u);
}

TEST_F(ObjectStoreTest, WriteTentativeRequiresWriteLock) {
  EXPECT_FALSE(store_.WriteTentative("x", {A(1), 0}, "v"));
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kRead));
  EXPECT_FALSE(store_.WriteTentative("x", {A(1), 0}, "v"));
}

TEST_F(ObjectStoreTest, ReadSeesOwnTentativeOthersSeeBase) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  store_.WriteTentative("x", {A(1), 0}, "mine");
  EXPECT_EQ(store_.Read("x", A(1)).value_or(""), "mine");
  EXPECT_FALSE(store_.Read("x", A(2)).has_value());  // base absent
}

TEST_F(ObjectStoreTest, SubactionAbortDiscardsOnlyThatAttempt) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  store_.WriteTentative("x", {A(1), 1}, "attempt1");
  store_.AbortSub({A(1), 1});
  EXPECT_FALSE(store_.Read("x", A(1)).has_value());
  // A fresh attempt starts from scratch and commits alone.
  store_.WriteTentative("x", {A(1), 2}, "attempt2");
  store_.Commit(A(1));
  EXPECT_EQ(store_.ReadCommitted("x").value_or(""), "attempt2");
}

TEST_F(ObjectStoreTest, DiscardSubsExceptKeepsLiveAttempts) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  ASSERT_TRUE(store_.TryAcquire("y", A(1), LockMode::kWrite));
  store_.WriteTentative("x", {A(1), 1}, "dead");
  store_.WriteTentative("y", {A(1), 2}, "live");
  store_.DiscardSubsExcept(A(1), {2});
  store_.Commit(A(1));
  EXPECT_FALSE(store_.ReadCommitted("x").has_value());
  EXPECT_EQ(store_.ReadCommitted("y").value_or(""), "live");
}

TEST_F(ObjectStoreTest, ReleaseReadLocksKeepsWriteLocks) {
  ASSERT_TRUE(store_.TryAcquire("r", A(1), LockMode::kRead));
  ASSERT_TRUE(store_.TryAcquire("w", A(1), LockMode::kWrite));
  store_.ReleaseReadLocks(A(1));
  EXPECT_FALSE(store_.HoldsLock("r", A(1), LockMode::kRead));
  EXPECT_TRUE(store_.HoldsLock("w", A(1), LockMode::kWrite));
  // Another transaction can now lock "r".
  EXPECT_TRUE(store_.TryAcquire("r", A(2), LockMode::kWrite));
}

TEST_F(ObjectStoreTest, HasWriteLocksDistinguishesReadOnly) {
  ASSERT_TRUE(store_.TryAcquire("r", A(1), LockMode::kRead));
  EXPECT_FALSE(store_.HasWriteLocks(A(1)));
  ASSERT_TRUE(store_.TryAcquire("w", A(1), LockMode::kWrite));
  EXPECT_TRUE(store_.HasWriteLocks(A(1)));
}

TEST_F(ObjectStoreTest, AbortFailsQueuedWaitersOfThatTxn) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  bool done = false, ok = true;
  store_.Acquire("x", A(2), LockMode::kWrite, 100000, [&](bool o) {
    done = true;
    ok = o;
  });
  store_.Abort(A(2));  // the *waiting* transaction aborts
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(store_.waiter_count(), 0u);
}

TEST_F(ObjectStoreTest, ApplyEffectsReconstructsPrimaryState) {
  // Backup-side application: grants locks and installs tentatives exactly
  // as the primary recorded them.
  std::vector<ObjectEffect> fx{{"x", LockMode::kWrite, "42"},
                               {"y", LockMode::kRead, std::nullopt}};
  store_.ApplyEffects({A(1), 0}, fx);
  EXPECT_TRUE(store_.HoldsLock("x", A(1), LockMode::kWrite));
  EXPECT_TRUE(store_.HoldsLock("y", A(1), LockMode::kRead));
  store_.Commit(A(1));
  EXPECT_EQ(store_.ReadCommitted("x").value_or(""), "42");
  EXPECT_FALSE(store_.ReadCommitted("y").has_value());
}

TEST_F(ObjectStoreTest, SnapshotRestoreRoundTripsLocksAndTentatives) {
  ASSERT_TRUE(store_.TryAcquire("x", A(1), LockMode::kWrite));
  store_.WriteTentative("x", {A(1), 0}, "tent");
  ASSERT_TRUE(store_.TryAcquire("y", A(2), LockMode::kRead));
  store_.ApplyEffects({A(3), 1}, {{"z", LockMode::kWrite, "zz"}});
  store_.Commit(A(3));

  wire::Writer w;
  store_.Snapshot(w);
  auto bytes = w.Take();

  ObjectStore copy(sim_);
  wire::Reader r(bytes);
  copy.Restore(r);
  ASSERT_TRUE(r.ok());

  EXPECT_TRUE(copy.HoldsLock("x", A(1), LockMode::kWrite));
  EXPECT_TRUE(copy.HoldsLock("y", A(2), LockMode::kRead));
  EXPECT_EQ(copy.ReadCommitted("z").value_or(""), "zz");
  EXPECT_EQ(copy.Read("x", A(1)).value_or(""), "tent");
  // A prepared transaction carried across a view change can still commit.
  copy.Commit(A(1));
  EXPECT_EQ(copy.ReadCommitted("x").value_or(""), "tent");
}

TEST_F(ObjectStoreTest, ClearFailsNothingAndEmptiesState) {
  store_.TryAcquire("x", A(1), LockMode::kWrite);
  store_.Clear();
  EXPECT_EQ(store_.object_count(), 0u);
  EXPECT_EQ(store_.lock_count(), 0u);
}

TEST(OutcomeTable, CommitIsFinalOverLateAbort) {
  OutcomeTable t;
  Aid aid{1, {1, 1}, 1};
  t.RecordCommitted(aid);
  t.RecordAborted(aid);  // late duplicate abort must not downgrade
  EXPECT_EQ(t.Lookup(aid), vr::TxnOutcome::kCommitted);
}

TEST(OutcomeTable, SnapshotRoundTrip) {
  OutcomeTable t;
  t.RecordCommitted(Aid{1, {1, 1}, 1});
  t.RecordAborted(Aid{1, {1, 1}, 2});
  wire::Writer w;
  t.Snapshot(w);
  auto bytes = w.Take();
  OutcomeTable out;
  wire::Reader r(bytes);
  out.Restore(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out.Lookup(Aid{1, {1, 1}, 1}), vr::TxnOutcome::kCommitted);
  EXPECT_EQ(out.Lookup(Aid{1, {1, 1}, 2}), vr::TxnOutcome::kAborted);
  EXPECT_EQ(out.Lookup(Aid{1, {1, 1}, 3}), vr::TxnOutcome::kUnknown);
}

// The run table against the plain per-aid map it replaced: the same random
// commits, aborts and done records, over several coordinator views and a
// small seq range (so seqs are adjacent, re-recorded, and committed over an
// abort), must leave every aid with the same answer after every step and
// after each Snapshot/Restore round trip. Runs stay maximal throughout.
TEST(OutcomeTable, RunsAnswerLikeAPlainMap) {
  const std::vector<Aid> coords = {
      Aid{1, {1, 1}, 0}, Aid{1, {2, 3}, 0}, Aid{2, {1, 1}, 0}};
  constexpr std::uint64_t kMaxSeq = 24;
  std::mt19937_64 rng(25);
  OutcomeTable t;
  std::map<Aid, vr::TxnOutcome> model;

  // The first aid whose answers differ, or "" when all agree.
  const auto mismatch = [&](const OutcomeTable& table) -> std::string {
    for (Aid aid : coords) {
      for (aid.seq = 0; aid.seq <= kMaxSeq + 1; ++aid.seq) {
        const auto it = model.find(aid);
        const vr::TxnOutcome want =
            it == model.end() ? vr::TxnOutcome::kUnknown : it->second;
        if (table.Lookup(aid) != want) return aid.ToString();
      }
    }
    return "";
  };
  // Maximal runs: a run ends wherever the coordinator, the seq or the
  // outcome does not continue.
  const auto maximal_runs = [&] {
    std::size_t runs = 0;
    const std::pair<const Aid, vr::TxnOutcome>* prev = nullptr;
    for (const auto& entry : model) {
      const bool continues =
          prev != nullptr &&
          prev->first.coordinator_group == entry.first.coordinator_group &&
          prev->first.view == entry.first.view &&
          prev->first.seq + 1 == entry.first.seq &&
          prev->second == entry.second;
      if (!continues) ++runs;
      prev = &entry;
    }
    return runs;
  };

  for (int step = 0; step < 6000; ++step) {
    Aid aid = coords[rng() % coords.size()];
    aid.seq = 1 + rng() % kMaxSeq;
    switch (rng() % 8) {
      case 0:
      case 1:
        t.RecordAborted(aid);
        model.emplace(aid, vr::TxnOutcome::kAborted);
        break;
      case 2:
        t.RecordDone(aid);
        model.erase(aid);
        break;
      default:
        t.RecordCommitted(aid);
        model[aid] = vr::TxnOutcome::kCommitted;
        break;
    }
    ASSERT_EQ(mismatch(t), "") << "after step " << step;
    ASSERT_EQ(t.run_count(), maximal_runs()) << "after step " << step;
    if (step % 97 == 0) {
      wire::Writer w;
      t.Snapshot(w);
      const auto bytes = w.Take();
      OutcomeTable restored;
      wire::Reader r(bytes);
      restored.Restore(r);
      ASSERT_TRUE(r.ok() && r.AtEnd());
      ASSERT_EQ(mismatch(restored), "") << "restored after step " << step;
      ASSERT_EQ(restored.run_count(), t.run_count());
      t = std::move(restored);  // keep driving the restored table
    }
  }
}

// Pins the image's layout: a u32 run count, then one row per run in aid
// order — the run's first aid (group u64, view counter u64, view mid u32,
// seq u64), its last seq (u64) and its outcome (u8) — all little-endian.
TEST(OutcomeTable, GoldenBytesRunImage) {
  OutcomeTable t;
  for (std::uint64_t seq : {2, 1, 3}) t.RecordCommitted(Aid{1, {1, 1}, seq});
  t.RecordAborted(Aid{1, {1, 1}, 5});
  t.RecordCommitted(Aid{2, {3, 2}, 7});
  wire::Writer w;
  t.Snapshot(w);
  std::string hex;
  for (std::uint8_t b : w.Take()) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "03000000"
            // t1/v1.1/1 .. 3 committed
            "0100000000000000" "0100000000000000" "01000000"
            "0100000000000000" "0300000000000000" "02"
            // t1/v1.1/5 aborted
            "0100000000000000" "0100000000000000" "01000000"
            "0500000000000000" "0500000000000000" "03"
            // t2/v3.2/7 committed
            "0200000000000000" "0300000000000000" "02000000"
            "0700000000000000" "0700000000000000" "02");
}

TEST(OutcomeTable, RestoreRejectsARunEndingBeforeItStarts) {
  wire::Writer w;
  w.U32(1);
  w(Aid{1, {1, 1}, 5}, std::uint64_t{4});
  w.U8(static_cast<std::uint8_t>(vr::TxnOutcome::kCommitted));
  const auto bytes = w.Take();
  OutcomeTable t;
  wire::Reader r(bytes);
  t.Restore(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(t.run_count(), 0u);
}

}  // namespace
}  // namespace vsr::txn
