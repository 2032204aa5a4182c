// The clock/timer half of the host seam (DESIGN.md §12).
//
// Protocol code never consults wall-clock time and never owns a thread; it
// observes time and schedules future work exclusively through this
// interface. Two implementations exist:
//
//   * sim::Scheduler       — the deterministic discrete-event simulator:
//                            Now() is simulated time, callbacks run when the
//                            event queue reaches them.
//   * host::EventLoop      — the threaded real-time host: Now() is the
//                            monotonic clock, callbacks run on the loop's
//                            thread when their deadline passes.
//
// Contract (what protocol code may assume — both hosts must satisfy it, and
// tests/host_conformance_test.cc checks them side by side). Both hosts keep
// their timers in one host::TimerQueue (host/timer_queue.h), which alone
// implements points 2 and 3:
//
//   1. Callbacks scheduled by At/After NEVER run synchronously inside the
//      scheduling call, even with a zero delay or a past deadline. (Code
//      relies on this to escape re-entrancy, e.g. SocketTransport's send
//      to its own node, an EventLoop::Post, and CommBuffer re-arming its
//      force-timeout check At a deadline that may already have passed.)
//   2. Callbacks with earlier deadlines run before callbacks with later
//      deadlines; callbacks with EQUAL deadlines run in scheduling order.
//   3. Cancel() of a pending timer guarantees its callback never runs.
//      Cancelling an already-fired or unknown id is a harmless no-op.
//   4. All callbacks run on the thread that drives this service (the
//      simulator's event loop or the node's event-loop thread) — protocol
//      code is single-threaded per cohort and never needs locks.
//   5. Now() is monotonic, in microseconds, and consistent with callback
//      execution: inside a callback scheduled for time T, Now() >= T.
#pragma once

#include <cstdint>
#include <functional>

#include "host/time.h"

namespace vsr::host {

// Identifies a scheduled timer so that it can be cancelled. Id 0 is never
// issued and may be used as a sentinel for "no timer armed".
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

class TimerService {
 public:
  virtual ~TimerService() = default;

  // Current host time.
  virtual Time Now() const = 0;

  // Schedules `fn` to run at absolute time `at` (clamped to >= Now()).
  virtual TimerId At(Time at, std::function<void()> fn) = 0;

  // Schedules `fn` to run `delay` from now.
  virtual TimerId After(Duration delay, std::function<void()> fn) = 0;

  // Cancels a pending timer. Cancelling an already-fired or unknown id is a
  // harmless no-op, so callers do not need to track firing themselves.
  virtual void Cancel(TimerId id) = 0;
};

}  // namespace vsr::host
