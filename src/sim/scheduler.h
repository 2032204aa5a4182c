// The discrete-event scheduler at the heart of the simulator — and the
// deterministic implementation of the host seam's TimerService (host/timer.h).
//
// Every asynchronous action in the system — message delivery, timer expiry,
// stable-storage write completion — is an entry in one host::TimerQueue,
// ordered by (time, timer id). Ids are issued in scheduling order, so
// simultaneous events fire in a deterministic order, which in turn makes the
// whole simulation a pure function of its seed. That ordering is exactly the
// TimerService contract (equal deadlines fire in scheduling order), so the
// protocol stack scheduled through the seam behaves identically whether it
// is driven by this class or by the real-time event loop.
#pragma once

#include <cstdint>
#include <functional>

#include "host/timer.h"
#include "host/timer_queue.h"
#include "sim/time.h"

namespace vsr::sim {

// Sim-side spellings of the seam's timer handle.
using host::TimerId;
using host::kNoTimer;

class Scheduler final : public host::TimerService {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Current simulated time.
  Time Now() const override { return now_; }

  // Schedules `fn` to run at absolute time `at` (clamped to >= Now()).
  TimerId At(Time at, std::function<void()> fn) override;

  // Schedules `fn` to run `delay` from now.
  TimerId After(Duration delay, std::function<void()> fn) override;

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // harmless no-op, so callers do not need to track firing themselves.
  void Cancel(TimerId id) override;

  // Runs the next pending event. Returns false if the queue is empty.
  bool Step();

  // Runs events until the queue is empty or simulated time would exceed
  // `deadline`; leaves events scheduled after the deadline pending and
  // advances Now() to the deadline. Returns the number of events run.
  std::uint64_t RunUntil(Time deadline);

  // Runs events until the queue drains. Returns the number of events run.
  // `max_events` guards against runaway self-rescheduling loops.
  std::uint64_t RunToQuiescence(std::uint64_t max_events = UINT64_MAX);

  bool Empty() const { return queue_.Empty(); }

 private:
  // Runs the earliest pending event if it is due by `until`.
  bool RunNext(Time until);

  Time now_ = 0;
  host::TimerQueue queue_;
};

}  // namespace vsr::sim
