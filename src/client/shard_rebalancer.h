// Live shard rebalancing orchestrator (DESIGN.md §11.3).
//
// Moves one key range between groups under traffic, driving the placement
// directory and the cohorts' pull/drop primitives through four phases:
//
//   1. BeginMove   — directory marks [lo, hi) kMigrating; the old owner
//                    keeps serving (this is what makes the move "live").
//   2. bulk pull   — the new owner's primary pulls the committed image of
//                    the range over the §9 snapshot machinery and forces a
//                    kShardInstall record to a sub-majority.
//   3. BeginHandoff— the old owner's procs reject range traffic; the
//                    rebalancer polls its primary until no in-flight
//                    transaction touches the range (strict 2PL: quiescent
//                    means every touching transaction committed/aborted),
//                    then takes a settle pull — the final delta, which for
//                    an idempotent install is just a re-pull of the range.
//   4. CommitMove  — routing flips atomically (one epoch bump); the old
//                    owner garbage-collects with DropShard.
//
// The orchestrator is a timer-driven state machine over the cluster: every
// step re-resolves the relevant primary, so crashes and view changes during
// a move only delay it.
#pragma once

#include <functional>
#include <string>

#include "client/cluster.h"

namespace vsr::client {

struct RebalanceOptions {
  // Drain-poll / retry cadence.
  sim::Duration poll_interval = 20 * sim::kMillisecond;
  // Give up and CancelMove if a move has not committed by then (0 = never).
  sim::Duration move_deadline = 0;
};

class ShardRebalancer {
 public:
  ShardRebalancer(Cluster& cluster, RebalanceOptions options = {})
      : cluster_(cluster), options_(options) {}
  ~ShardRebalancer() { CancelTimer(); }
  ShardRebalancer(const ShardRebalancer&) = delete;
  ShardRebalancer& operator=(const ShardRebalancer&) = delete;

  // Starts moving [lo, hi) to `to`. One move at a time; `done(ok)` fires
  // after CommitMove + DropShard (ok) or after CancelMove (deadline).
  void Move(std::string lo, std::string hi, vr::GroupId to,
            std::function<void(bool)> done = nullptr);

  bool active() const { return phase_ != Phase::kIdle; }

  struct Stats {
    std::uint64_t moves_completed = 0;
    std::uint64_t bulk_pulls = 0;    // pull attempts during phase 2
    std::uint64_t settle_pulls = 0;  // pull attempts during phase 3
    // Simulated time from BeginHandoff to CommitMove of the last move —
    // the window in which the range is unavailable.
    sim::Duration last_handoff_window = 0;
    sim::Duration last_move_duration = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  enum class Phase { kIdle, kBulk, kDrain, kSettle };

  void StartBulkPull();
  void PollDrain();
  void StartSettlePull();
  void Commit();
  void Finish(bool ok);
  void ArmTimer(std::function<void()> fn);
  void CancelTimer();
  bool DeadlineExceeded() const;

  Cluster& cluster_;
  RebalanceOptions options_;

  Phase phase_ = Phase::kIdle;
  std::string lo_;
  std::string hi_;
  vr::GroupId from_ = 0;
  vr::GroupId to_ = 0;
  std::function<void(bool)> done_;
  std::uint64_t move_id_ = 0;  // guards stale pull completions
  sim::Time move_began_ = 0;
  sim::Time handoff_began_ = 0;
  sim::TimerId timer_ = sim::kNoTimer;
  Stats stats_;
};

}  // namespace vsr::client
