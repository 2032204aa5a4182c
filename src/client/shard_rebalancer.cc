#include "client/shard_rebalancer.h"

#include <stdexcept>

namespace vsr::client {

void ShardRebalancer::Move(std::string lo, std::string hi, vr::GroupId to,
                           std::function<void(bool)> done) {
  if (active()) throw std::logic_error("ShardRebalancer: move in progress");
  const core::ShardRange* r = cluster_.directory().Route(lo);
  if (r == nullptr) throw std::logic_error("ShardRebalancer: unplaced range");
  lo_ = std::move(lo);
  hi_ = std::move(hi);
  from_ = r->owner;
  to_ = to;
  done_ = std::move(done);
  ++move_id_;
  move_began_ = cluster_.sim().Now();
  cluster_.directory().BeginMove(lo_, hi_, to_);
  phase_ = Phase::kBulk;
  StartBulkPull();
}

void ShardRebalancer::StartBulkPull() {
  if (phase_ != Phase::kBulk) return;
  if (DeadlineExceeded()) {
    Finish(false);
    return;
  }
  core::Cohort* dest = cluster_.AnyPrimary(to_);
  if (dest == nullptr) {
    ArmTimer([this] { StartBulkPull(); });
    return;
  }
  ++stats_.bulk_pulls;
  const std::uint64_t id = move_id_;
  dest->PullShard(from_, lo_, hi_, [this, id](bool ok) {
    if (move_id_ != id || phase_ != Phase::kBulk) return;
    if (!ok) {
      // Destination primary changed or the force failed: re-issue at
      // whichever cohort is primary now.
      ArmTimer([this] { StartBulkPull(); });
      return;
    }
    // Image replicated at the new owner: close the old owner's doors and
    // start draining.
    cluster_.directory().BeginHandoff(lo_, hi_);
    handoff_began_ = cluster_.sim().Now();
    phase_ = Phase::kDrain;
    PollDrain();
  });
}

void ShardRebalancer::PollDrain() {
  if (phase_ != Phase::kDrain) return;
  if (DeadlineExceeded()) {
    Finish(false);
    return;
  }
  core::Cohort* src = cluster_.AnyPrimary(from_);
  // Strict 2PL: no holders/tentatives/waiters in the range means every
  // transaction that ever touched it here has committed or aborted, and the
  // handoff gate stops new ones — the committed bases are final.
  if (src != nullptr && src->ShardRangeQuiescent(lo_, hi_)) {
    phase_ = Phase::kSettle;
    StartSettlePull();
    return;
  }
  ArmTimer([this] { PollDrain(); });
}

void ShardRebalancer::StartSettlePull() {
  if (phase_ != Phase::kSettle) return;
  if (DeadlineExceeded()) {
    Finish(false);
    return;
  }
  core::Cohort* dest = cluster_.AnyPrimary(to_);
  if (dest == nullptr) {
    ArmTimer([this] { StartSettlePull(); });
    return;
  }
  ++stats_.settle_pulls;
  const std::uint64_t id = move_id_;
  dest->PullShard(from_, lo_, hi_, [this, id](bool ok) {
    if (move_id_ != id || phase_ != Phase::kSettle) return;
    if (!ok) {
      ArmTimer([this] { StartSettlePull(); });
      return;
    }
    // A view change at the old owner between drain and this settle pull
    // could have let fresh transactions in under the pre-handoff placement
    // it no longer checks — quiescence is re-verified after the pull; if it
    // no longer holds, drain again and take another settle pass.
    core::Cohort* src = cluster_.AnyPrimary(from_);
    if (src == nullptr || !src->ShardRangeQuiescent(lo_, hi_)) {
      phase_ = Phase::kDrain;
      ArmTimer([this] { PollDrain(); });
      return;
    }
    Commit();
  });
}

void ShardRebalancer::Commit() {
  cluster_.directory().CommitMove(lo_, hi_);
  stats_.last_handoff_window = cluster_.sim().Now() - handoff_began_;
  // Old owner garbage-collects; best-effort (a missing primary just leaves
  // the dead copy until a later move or drop).
  core::Cohort* src = cluster_.AnyPrimary(from_);
  if (src != nullptr) src->DropShard(lo_, hi_);
  Finish(true);
}

void ShardRebalancer::Finish(bool ok) {
  if (!ok && phase_ != Phase::kIdle) cluster_.directory().CancelMove(lo_, hi_);
  if (ok) {
    ++stats_.moves_completed;
    stats_.last_move_duration = cluster_.sim().Now() - move_began_;
  }
  CancelTimer();
  phase_ = Phase::kIdle;
  ++move_id_;  // voids in-flight pull callbacks
  auto done = std::move(done_);
  done_ = nullptr;
  if (done) done(ok);
}

void ShardRebalancer::ArmTimer(std::function<void()> fn) {
  CancelTimer();
  timer_ = cluster_.sim().scheduler().After(
      options_.poll_interval, [this, fn = std::move(fn)] {
        timer_ = sim::kNoTimer;
        fn();
      });
}

void ShardRebalancer::CancelTimer() {
  cluster_.sim().scheduler().Cancel(timer_);
  timer_ = sim::kNoTimer;
}

bool ShardRebalancer::DeadlineExceeded() const {
  return options_.move_deadline != 0 &&
         cluster_.sim().Now() - move_began_ > options_.move_deadline;
}

}  // namespace vsr::client
