// Minimal C++20 coroutine support over the host seam.
//
// Task<T> is a lazy, single-awaiter coroutine. Protocol handlers that must
// suspend mid-execution — a server procedure making a nested remote call, a
// client transaction script awaiting a reply — are written as Task
// coroutines; the host resumes them when the awaited event fires. Because
// resumption is always driven by a TimerService callback or a frame handler,
// coroutines run on whatever single thread drives the host, on both the
// simulator and the threaded socket host.
//
// Lifetime rules (important for crash injection):
//   * A Task owns its coroutine frame; destroying the Task destroys the
//     frame, recursively destroying any inner Task the frame is awaiting.
//   * Awaitables that register external resumption (timers, pending RPC
//     tables) MUST deregister in their destructor, so that destroying a
//     suspended coroutine — e.g. because the node it runs on crashed —
//     leaves no dangling resume path. See SleepAwaiter for the pattern.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>

#include "host/timer.h"

namespace vsr::host {

namespace detail {

class TaskPromiseBase {
 public:
  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      std::coroutine_handle<> next = promise.continuation_;
      if (!next) next = std::noop_coroutine();
      // The owner of a detached frame may destroy it inside `done`, so the
      // callback leaves the promise before it runs.
      if (auto done = std::move(promise.on_done_)) done();
      return next;
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error_ = std::current_exception(); }

  void set_continuation(std::coroutine_handle<> c) { continuation_ = c; }
  void set_on_done(std::function<void()> f) { on_done_ = std::move(f); }

  void RethrowIfError() {
    if (error_) std::rethrow_exception(error_);
  }

 protected:
  std::coroutine_handle<> continuation_;
  std::function<void()> on_done_;
  std::exception_ptr error_;
};

// The one part of a promise that depends on T: how the result is stored and
// handed to the awaiter.
template <typename T>
class TaskResult {
 public:
  template <typename U>
  void return_value(U&& v) {
    value_.emplace(std::forward<U>(v));
  }
  T TakeResult() {
    assert(value_.has_value());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
};

template <>
class TaskResult<void> {
 public:
  void return_void() {}
  void TakeResult() {}
};

}  // namespace detail

// A lazy coroutine returning T (or nothing, for Task<void>). The coroutine
// body does not start executing until the Task is awaited or spawned into a
// TaskRegistry.
template <typename T>
class Task {
 public:
  struct promise_type : detail::TaskPromiseBase, detail::TaskResult<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  // Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        h.promise().set_continuation(awaiting);
        return h;  // symmetric transfer: start the child
      }
      T await_resume() {
        h.promise().RethrowIfError();
        return h.promise().TakeResult();
      }
    };
    return Awaiter{handle_};
  }

  // Releases ownership of the frame (caller becomes responsible).
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, {});
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

// Owns the frames of detached ("fire and forget") coroutines, e.g. the
// handler coroutine a server spawns per incoming call. A frame is destroyed
// from inside its own final awaiter, the moment it finishes; DestroyAll()
// tears down all still-live frames, which is exactly the semantics of a
// node crash.
class TaskRegistry {
 public:
  TaskRegistry() = default;
  TaskRegistry(const TaskRegistry&) = delete;
  TaskRegistry& operator=(const TaskRegistry&) = delete;
  ~TaskRegistry() { DestroyAll(); }

  // Starts `t` and retains its frame until it finishes.
  void Spawn(Task<void> t) {
    auto h = t.Release();
    if (!h) return;
    const std::uint64_t id = next_id_++;
    h.promise().set_on_done([this, id, h] {
      // Suspended at its final suspend point, the frame may be destroyed
      // here. A frame DestroyAll() has already taken out of live_ is left
      // to it.
      if (live_.erase(id) != 0) h.destroy();
    });
    live_.emplace(id, h);
    h.resume();
  }

  std::size_t live_count() const { return live_.size(); }

  // Destroys every live frame. Frames are keyed by a spawn counter, not by
  // address, so a crash tears them down in the same order on every run.
  void DestroyAll() {
    auto frames = std::move(live_);
    live_.clear();
    for (auto& [id, h] : frames) h.destroy();
  }

 private:
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t,
                     std::coroutine_handle<Task<void>::promise_type>>
      live_;
};

// co_await Sleep(timers, d) suspends the coroutine for `d` of host time.
// If the coroutine is destroyed while sleeping, the timer is cancelled.
class SleepAwaiter {
 public:
  SleepAwaiter(TimerService& timers, Duration d) : timers_(timers), delay_(d) {}
  SleepAwaiter(const SleepAwaiter&) = delete;
  SleepAwaiter& operator=(const SleepAwaiter&) = delete;
  ~SleepAwaiter() {
    if (timer_ != kNoTimer && !fired_) timers_.Cancel(timer_);
  }

  bool await_ready() const noexcept { return delay_ == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    timer_ = timers_.After(delay_, [this, h] {
      fired_ = true;
      h.resume();
    });
  }
  void await_resume() noexcept {}

 private:
  TimerService& timers_;
  Duration delay_;
  TimerId timer_ = kNoTimer;
  bool fired_ = false;
};

inline SleepAwaiter Sleep(TimerService& timers, Duration d) {
  return SleepAwaiter(timers, d);
}

}  // namespace vsr::host
