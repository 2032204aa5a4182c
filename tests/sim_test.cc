// Unit tests for the simulation substrate: scheduler, PRNG, coroutine tasks.
#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace vsr::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(30, [&] { order.push_back(3); });
  s.At(10, [&] { order.push_back(1); });
  s.At(20, [&] { order.push_back(2); });
  s.RunToQuiescence();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30u);
}

TEST(Scheduler, SimultaneousEventsRunInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.At(5, [&, i] { order.push_back(i); });
  }
  s.RunToQuiescence();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, AfterSchedulesRelativeToNow) {
  Scheduler s;
  Time fired_at = 0;
  s.At(100, [&] { s.After(50, [&] { fired_at = s.Now(); }); });
  s.RunToQuiescence();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  TimerId id = s.At(10, [&] { ran = true; });
  s.Cancel(id);
  s.RunToQuiescence();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelUnknownIdIsNoop) {
  Scheduler s;
  s.Cancel(12345);
  s.Cancel(kNoTimer);
  EXPECT_TRUE(s.Empty());
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int count = 0;
  s.At(10, [&] { ++count; });
  s.At(20, [&] { ++count; });
  s.At(30, [&] { ++count; });
  s.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.Now(), 20u);
  s.RunUntil(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.Now(), 100u);  // advances to the deadline even if idle
}

TEST(Scheduler, PastTimeClampsToNow) {
  Scheduler s;
  s.At(50, [] {});
  s.RunToQuiescence();
  Time fired_at = 0;
  s.At(10, [&] { fired_at = s.Now(); });  // 10 < Now()=50
  s.RunToQuiescence();
  EXPECT_EQ(fired_at, 50u);
}

TEST(Scheduler, SelfReschedulingRespectsMaxEvents) {
  Scheduler s;
  std::function<void()> loop = [&] { s.After(1, loop); };
  s.After(1, loop);
  const std::uint64_t ran = s.RunToQuiescence(1000);
  EXPECT_EQ(ran, 1000u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = r.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.Exponential(1000));
  EXPECT_NEAR(sum / n, 1000.0, 50.0);
}

TEST(Rng, ForkIsIndependentButDeterministic) {
  Rng a(5);
  Rng child1 = a.Fork();
  Rng b(5);
  Rng child2 = b.Fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child1.Next(), child2.Next());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Task, LazyUntilAwaited) {
  bool ran = false;
  auto make = [&]() -> Task<int> {
    ran = true;
    co_return 7;
  };
  Task<int> t = make();
  EXPECT_FALSE(ran);

  Scheduler sched;
  TaskRegistry reg;
  int result = 0;
  reg.Spawn([](Task<int> inner, int* out) -> Task<void> {
    *out = co_await std::move(inner);
  }(std::move(t), &result));
  sched.RunToQuiescence();
  EXPECT_TRUE(ran);
  EXPECT_EQ(result, 7);
}

TEST(Task, ExceptionsPropagateThroughAwait) {
  Scheduler sched;
  TaskRegistry reg;
  bool caught = false;
  auto thrower = []() -> Task<int> {
    throw std::runtime_error("boom");
    co_return 0;  // unreachable
  };
  reg.Spawn([](Task<int> inner, bool* flag) -> Task<void> {
    try {
      co_await std::move(inner);
    } catch (const std::runtime_error&) {
      *flag = true;
    }
  }(thrower(), &caught));
  sched.RunToQuiescence();
  EXPECT_TRUE(caught);
}

TEST(Task, SleepSuspendsForSimulatedTime) {
  Scheduler sched;
  TaskRegistry reg;
  Time woke_at = 0;
  reg.Spawn([](Scheduler* s, Time* out) -> Task<void> {
    co_await Sleep(*s, 250);
    *out = s->Now();
  }(&sched, &woke_at));
  sched.RunToQuiescence();
  EXPECT_EQ(woke_at, 250u);
}

TEST(TaskRegistry, ReapsCompletedTasks) {
  Scheduler sched;
  TaskRegistry reg;
  reg.Spawn([]() -> Task<void> { co_return; }());
  // The frame is destroyed inside its own final awaiter: no event needed.
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_TRUE(sched.Empty());
}

TEST(TaskRegistry, DestroyAllKillsSleepers) {
  Scheduler sched;
  TaskRegistry reg;
  bool finished = false;
  reg.Spawn([](Scheduler* s, bool* out) -> Task<void> {
    co_await Sleep(*s, 1000);
    *out = true;
  }(&sched, &finished));
  sched.RunUntil(10);
  EXPECT_EQ(reg.live_count(), 1u);
  reg.DestroyAll();  // crash semantics: suspended frame destroyed
  sched.RunToQuiescence();
  EXPECT_FALSE(finished);
  EXPECT_EQ(reg.live_count(), 0u);
}

TEST(TaskRegistry, NestedAwaitChainsComplete) {
  Scheduler sched;
  TaskRegistry reg;
  int result = 0;
  // three-deep chain with sleeps at each level
  struct Helper {
    static Task<int> Leaf(Scheduler& s) {
      co_await Sleep(s, 10);
      co_return 1;
    }
    static Task<int> Mid(Scheduler& s) {
      co_await Sleep(s, 10);
      int v = co_await Leaf(s);
      co_return v + 1;
    }
  };
  reg.Spawn([](Scheduler* s, int* out) -> Task<void> {
    int v = co_await Helper::Mid(*s);
    *out = v + 1;
  }(&sched, &result));
  sched.RunToQuiescence();
  EXPECT_EQ(result, 3);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(FormatDuration(12), "12us");
  EXPECT_EQ(FormatDuration(12 * kMillisecond + 345), "12.345ms");
  EXPECT_EQ(FormatDuration(3 * kSecond + 250 * kMillisecond), "3.250s");
}

}  // namespace
}  // namespace vsr::sim
