// Real-time host: a single-threaded event loop implementing the
// host::TimerService seam (DESIGN.md §12) over the wall clock, plus fd
// readiness for the node's sockets.
//
// One EventLoop per node, and one thread per EventLoop. The loop thread is
// the node's "host thread" in the seam contract: every timer callback and
// every delivered frame runs on it, serialized, so protocol code needs no
// locks — exactly as under the deterministic simulator, where the scheduler
// thread plays the same role.
//
// The thread sleeps in one epoll set until the next timer deadline
// (epoll_pwait2, microsecond timeout) or until a watched fd is ready. A
// SocketTransport watches its listener and connections here, so frames are
// read and delivered on the loop thread with no thread of their own.
//
// Timers satisfy the TimerService contract:
//   * At/After never run the callback synchronously, even with a zero or
//     past deadline — the entry is queued and fires on the loop thread.
//   * Ordering and cancellation are the shared host::TimerQueue's, the
//     same queue sim::Scheduler runs on.
//   * Inside a callback scheduled for time T, Now() >= T.
//
// At/After/Cancel/Post are thread-safe (harness threads post work through
// them; an eventfd wakes the sleeping loop), but callbacks only ever
// execute on the loop thread. Watch/Modify/Unwatch are loop-thread calls,
// also allowed before Start() and after Stop().
#pragma once

#include <sys/epoll.h>

#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "host/timer.h"
#include "host/timer_queue.h"

namespace vsr::host {

// Receives readiness for one watched fd, on the loop thread. `events` is
// the epoll mask that fired (EPOLLIN, EPOLLOUT, EPOLLERR, EPOLLHUP, ...).
class IoHandler {
 public:
  virtual void OnIo(std::uint32_t events) = 0;

 protected:
  ~IoHandler() = default;
};

class EventLoop final : public TimerService {
 public:
  EventLoop();
  ~EventLoop() override;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Spawns the loop thread. Timers scheduled before Start() fire once it
  // runs.
  void Start();

  // Stops the loop and joins the thread. Pending timers are discarded
  // without firing (like a process exit; cohort destructors run separately,
  // on the caller's thread, once nothing can call into them anymore).
  void Stop();

  // Runs `fn` on the loop thread as soon as possible (an After(0) with a
  // cross-thread-friendly name). Safe from any thread.
  void Post(std::function<void()> fn) { After(0, std::move(fn)); }

  // True iff called from the loop thread (SocketTransport::Shutdown then
  // tears down inline instead of posting and waiting on itself).
  bool OnLoopThread() const;

  // True between Start() and Stop(): posted work will run.
  bool Running() const;

  // fd readiness (level-triggered). `events` is an epoll interest mask;
  // EPOLLERR and EPOLLHUP are always reported. The handler must stay alive
  // until Unwatch, which also discards readiness already collected for it
  // in the batch being dispatched, so a handler may unwatch and free itself
  // or another handler from inside OnIo.
  void Watch(int fd, std::uint32_t events, IoHandler* handler);
  void Modify(int fd, std::uint32_t events, IoHandler* handler);
  void Unwatch(int fd, IoHandler* handler);

  // host::TimerService --------------------------------------------------
  Time Now() const override;
  TimerId At(Time deadline, std::function<void()> fn) override;
  TimerId After(Duration delay, std::function<void()> fn) override;
  void Cancel(TimerId id) override;

 private:
  static constexpr int kMaxEvents = 64;

  void Run();
  // Fires the timers due now and scheduled before this call; returns false
  // once the loop is stopping. Timers a callback schedules wait for the
  // next round, so a callback that keeps re-posting cannot starve the fds.
  bool FireDueTimers();
  // Sleeps until the next deadline or fd readiness, then dispatches.
  void PollIo();
  void Wake();

  const int epoll_fd_;
  const int wake_fd_;  // eventfd: cross-thread At/Post and Stop wake Run

  // The readiness batch being dispatched (loop thread only).
  epoll_event ready_[kMaxEvents];
  int ready_count_ = 0;
  int ready_next_ = 0;

  mutable std::mutex mu_;
  TimerQueue queue_;
  // While the loop sleeps in epoll, the deadline it will wake for on its
  // own; At() only writes the eventfd for an earlier one.
  bool sleeping_ = false;
  Time sleep_until_ = 0;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace vsr::host
