// Awaitable request/response correlation.
//
// A coroutine that sent a request co_awaits WaitTable::Await(key, timeout)
// and is resumed either by Fulfill(key, msg) when the matching response
// frame arrives, or by the timeout with nullopt. The awaiter deregisters
// itself on destruction, so destroying a suspended coroutine (node crash,
// transaction teardown) leaves no dangling resume path.
//
// The key is whatever the response carries: a correlation id for calls and
// probes, the aid for §3.4 query replies, (aid, replying group) for 2PC
// replies.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "host/timer.h"

namespace vsr::core {

template <typename M, typename K = std::uint64_t>
class WaitTable {
 public:
  explicit WaitTable(host::TimerService& sched) : sched_(sched) {}
  WaitTable(const WaitTable&) = delete;
  WaitTable& operator=(const WaitTable&) = delete;

  class Awaiter {
   public:
    Awaiter(WaitTable& table, K key, host::Duration timeout)
        : table_(table), key_(std::move(key)), timeout_(timeout) {}
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;
    ~Awaiter() {
      Deregister();
      table_.sched_.Cancel(timer_);
    }

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle_ = h;
      table_.entries_[key_] = this;
      timer_ = table_.sched_.After(timeout_, [this] {
        timer_ = host::kNoTimer;
        Fire(std::nullopt);
      });
    }
    std::optional<M> await_resume() noexcept { return std::move(result_); }

   private:
    friend class WaitTable;

    // Removes the entry only while it still routes to this awaiter: a later
    // Await on the same key may have taken it over.
    void Deregister() {
      auto it = table_.entries_.find(key_);
      if (it != table_.entries_.end() && it->second == this) {
        table_.entries_.erase(it);
      }
    }

    void Fire(std::optional<M> m) {
      Deregister();
      table_.sched_.Cancel(timer_);
      timer_ = host::kNoTimer;
      result_ = std::move(m);
      // Resuming may destroy this awaiter's frame; touch nothing after.
      handle_.resume();
    }

    WaitTable& table_;
    K key_;
    host::Duration timeout_;
    std::coroutine_handle<> handle_;
    host::TimerId timer_ = host::kNoTimer;
    std::optional<M> result_;
  };

  // One waiter per key: a second Await on a key that is still waiting takes
  // over delivery, and the displaced waiter runs to its timeout.
  Awaiter Await(K key, host::Duration timeout) {
    return Awaiter(*this, std::move(key), timeout);
  }

  // Delivers a response. Returns false if nobody is waiting (late/duplicate
  // responses are dropped by the caller).
  bool Fulfill(const K& key, M msg) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    Awaiter* a = it->second;
    a->Fire(std::move(msg));
    return true;
  }

  std::size_t pending() const { return entries_.size(); }

 private:
  friend class Awaiter;
  host::TimerService& sched_;
  std::map<K, Awaiter*> entries_;
};

}  // namespace vsr::core
