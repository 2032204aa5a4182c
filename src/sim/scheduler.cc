#include "sim/scheduler.h"

#include <algorithm>
#include <utility>

namespace vsr::sim {

TimerId Scheduler::At(Time at, std::function<void()> fn) {
  return queue_.Push(std::max(at, now_), std::move(fn));
}

TimerId Scheduler::After(Duration delay, std::function<void()> fn) {
  return At(now_ + delay, std::move(fn));
}

void Scheduler::Cancel(TimerId id) { queue_.Cancel(id); }

bool Scheduler::RunNext(Time until) {
  auto e = queue_.PopDue(until);
  if (!e) return false;
  now_ = e->deadline;
  e->fn();
  return true;
}

bool Scheduler::Step() { return RunNext(host::TimerQueue::kNever); }

std::uint64_t Scheduler::RunUntil(Time deadline) {
  std::uint64_t ran = 0;
  while (RunNext(deadline)) ++ran;
  if (now_ < deadline) now_ = deadline;
  return ran;
}

std::uint64_t Scheduler::RunToQuiescence(std::uint64_t max_events) {
  std::uint64_t ran = 0;
  while (ran < max_events && Step()) ++ran;
  return ran;
}

}  // namespace vsr::sim
