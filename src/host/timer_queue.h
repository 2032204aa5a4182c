// The timer queue behind both hosts' TimerService (DESIGN.md §12.2).
//
// sim::Scheduler keeps its whole event queue in one TimerQueue; each
// host::EventLoop keeps its timers in one, under the loop's mutex. The
// queue alone implements contracts 2 and 3 of host/timer.h: entries pop in
// (deadline, id) order, and ids count up from 1 in Push order, so equal
// deadlines pop in scheduling order; a cancelled entry stays in the heap as
// a tombstone and is dropped, never returned, when it reaches the front.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "host/time.h"
#include "host/timer.h"

namespace vsr::host {

class TimerQueue {
 public:
  static constexpr Time kNever = std::numeric_limits<Time>::max();

  struct Entry {
    Time deadline;
    TimerId id;
    std::function<void()> fn;
  };

  TimerId Push(Time deadline, std::function<void()> fn) {
    const TimerId id = next_id_++;
    heap_.push_back(Entry{deadline, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    live_.insert(id);
    return id;
  }

  // A fired, cancelled or unknown id is a no-op.
  void Cancel(TimerId id) { live_.erase(id); }

  // Removes and returns the earliest live entry if its deadline is at most
  // `due` and it was pushed before id `before`; nullopt otherwise.
  std::optional<Entry> PopDue(
      Time due, TimerId before = std::numeric_limits<TimerId>::max()) {
    if (DropTombstones() || heap_.front().deadline > due ||
        heap_.front().id >= before) {
      return std::nullopt;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    live_.erase(e.id);
    return e;
  }

  // The earliest live entry's deadline, or kNever when none is queued.
  Time NextDeadline() {
    return DropTombstones() ? kNever : heap_.front().deadline;
  }

  bool Empty() const { return live_.empty(); }

  // The id the next Push returns.
  TimerId next_id() const { return next_id_; }

 private:
  // std::push_heap keeps the LARGEST element in front, so "later" ordering
  // makes the heap a min-heap on (deadline, id).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.id > b.id;
    }
  };

  // Pops cancelled entries off the front; true when no live entry is left.
  bool DropTombstones() {
    while (!heap_.empty() && live_.count(heap_.front().id) == 0) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    return heap_.empty();
  }

  std::vector<Entry> heap_;
  // Ids pushed and neither popped nor cancelled: the one source of truth
  // for "will this fire?".
  std::unordered_set<TimerId> live_;
  TimerId next_id_ = 1;
};

}  // namespace vsr::host
