#include "net/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

namespace mdn::net {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.3), 300 * kMillisecond);
  EXPECT_EQ(from_millis(50.0), 50 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(1500 * kMillisecond), 1.5);
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, EqualTimesRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, ScheduleInIsRelative) {
  EventLoop loop;
  SimTime observed = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_in(50, [&] { observed = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(observed, 150);
}

TEST(EventLoop, PastEventsRunAtCurrentTime) {
  EventLoop loop;
  SimTime observed = -1;
  loop.schedule_at(100, [&] {
    loop.schedule_at(10, [&] { observed = loop.now(); });  // in the past
  });
  loop.run();
  EXPECT_EQ(observed, 100);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const auto id = loop.schedule_at(10, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, CancelledEventDoesNotBlockOthers) {
  EventLoop loop;
  bool ran = false;
  const auto id = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    loop.schedule_at(t, [&fired, &loop] { fired.push_back(loop.now()); });
  }
  loop.run_until(25);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(loop.now(), 25);
  EXPECT_EQ(loop.pending(), 2u);
  loop.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventLoop, RunUntilIncludesBoundaryEvents) {
  EventLoop loop;
  bool ran = false;
  loop.schedule_at(25, [&] { ran = true; });
  loop.run_until(25);
  EXPECT_TRUE(ran);
}

TEST(EventLoop, RunUntilAdvancesClockWithoutEvents) {
  EventLoop loop;
  loop.run_until(1000);
  EXPECT_EQ(loop.now(), 1000);
}

TEST(EventLoop, PeriodicFiresUntilStopped) {
  EventLoop loop;
  int count = 0;
  loop.schedule_periodic(10, 10, [&] { return ++count < 5; });
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, PeriodicFirstDelayIndependentOfPeriod) {
  EventLoop loop;
  std::vector<SimTime> fires;
  loop.schedule_periodic(5, 100, [&] {
    fires.push_back(loop.now());
    return fires.size() < 3;
  });
  loop.run();
  EXPECT_EQ(fires, (std::vector<SimTime>{5, 105, 205}));
}

TEST(EventLoop, PeriodicFreesItsCallbackOnceStopped) {
  EventLoop loop;
  auto state = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = state;
  loop.schedule_periodic(10, 10, [state] { return ++*state < 3; });
  state.reset();
  loop.run_until(15);
  EXPECT_FALSE(watch.expired());  // the pending firing owns the callback
  loop.run();
  EXPECT_EQ(loop.now(), 30);
  EXPECT_TRUE(watch.expired());
}

TEST(EventLoop, NestedSchedulingDuringDispatch) {
  // An event scheduling another event at the same timestamp runs it in
  // the same run() pass.
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) loop.schedule_at(loop.now(), recurse);
  };
  loop.schedule_at(1, recurse);
  loop.run();
  EXPECT_EQ(depth, 100);
}

TEST(EventLoop, PendingCountsLiveEventsOnly) {
  EventLoop loop;
  const auto a = loop.schedule_at(10, [] {});
  loop.schedule_at(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, ScheduleCancelChurnDoesNotGrowHeap) {
  // Regression: tombstones used to be reclaimed only when popped, so a
  // long-lived loop that schedules and cancels (timeouts, retransmit
  // timers) grew the heap without bound.  cancel() now compacts when
  // tombstones exceed half the heap; 100k churn cycles must stay within
  // a small multiple of the live watermark.
  EventLoop loop;
  // A few long-lived events so compaction always has survivors to keep.
  std::vector<EventLoop::EventId> keep;
  for (int i = 0; i < 8; ++i) {
    keep.push_back(loop.schedule_at(1'000'000 + i, [] {}));
  }
  for (int i = 0; i < 100'000; ++i) {
    const auto id = loop.schedule_at(500'000 + i, [] {});
    loop.cancel(id);
    ASSERT_LE(loop.heap_size(), 2 * loop.pending() + 2)
        << "tombstones accumulating at churn cycle " << i;
  }
  EXPECT_EQ(loop.pending(), keep.size());
  for (const auto id : keep) loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(loop.dispatched(), 0u);
}

TEST(EventLoop, CompactionPreservesOrderAndCancellation) {
  // Force a compaction mid-stream, then check that survivors still fire
  // in (time, id) order and cancelled events stay cancelled.
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventLoop::EventId> doomed;
  for (int i = 0; i < 64; ++i) {
    if (i % 2 == 0) {
      loop.schedule_at(100 + i, [&order, i] { order.push_back(i); });
    } else {
      doomed.push_back(loop.schedule_at(100 + i, [&order, i] {
        order.push_back(-i);
      }));
    }
  }
  for (const auto id : doomed) loop.cancel(id);  // 50% dead -> compacts
  EXPECT_LE(loop.heap_size(), 2 * loop.pending() + 2);
  loop.run();
  ASSERT_EQ(order.size(), 32u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i));
  }
}

TEST(EventLoop, RandomScheduleCancelMatchesReferenceOrder) {
  // Seeded random times from a narrow range (many ties), cancels past
  // the compaction threshold, and callbacks that schedule and cancel
  // more events: the dispatch order must equal a stable sort of the
  // live events by time, i.e. by (time, scheduling order).
  enum class State { kPending, kRan, kCancelled };
  struct Scheduled {
    SimTime time;
    EventLoop::EventId id = 0;
    State state = State::kPending;
  };
  EventLoop loop;
  std::mt19937 rng(17);
  std::vector<Scheduled> scheduled;     // in scheduling order
  std::vector<std::size_t> dispatched;  // indices into `scheduled`
  const auto cancel = [&](std::size_t i) {
    if (scheduled[i].state == State::kPending) {
      scheduled[i].state = State::kCancelled;
    }
    loop.cancel(scheduled[i].id);  // a no-op once it ran
  };
  std::function<void(SimTime)> add = [&](SimTime t) {
    const std::size_t i = scheduled.size();
    scheduled.push_back({t});
    scheduled[i].id = loop.schedule_at(t, [&, i] {
      scheduled[i].state = State::kRan;
      dispatched.push_back(i);
      if (rng() % 3 == 0 && scheduled.size() < 4000) {
        add(loop.now() + static_cast<SimTime>(rng() % 8));
      }
      if (rng() % 5 == 0) cancel(rng() % scheduled.size());
    });
  };
  for (int i = 0; i < 1000; ++i) add(static_cast<SimTime>(rng() % 40));

  std::vector<std::size_t> doomed(scheduled.size());
  std::iota(doomed.begin(), doomed.end(), std::size_t{0});
  std::shuffle(doomed.begin(), doomed.end(), rng);
  doomed.resize(600);  // past the 50% tombstone threshold: compacts
  for (const std::size_t i : doomed) cancel(i);
  EXPECT_EQ(loop.pending(), 400u);
  EXPECT_LE(loop.heap_size(), 2 * loop.pending() + 2);
  loop.run();

  std::vector<std::size_t> want;
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    if (scheduled[i].state != State::kCancelled) want.push_back(i);
  }
  std::stable_sort(want.begin(), want.end(),
                   [&](std::size_t a, std::size_t b) {
                     return scheduled[a].time < scheduled[b].time;
                   });
  EXPECT_GT(scheduled.size(), 1000u);  // callbacks scheduled more
  EXPECT_EQ(dispatched, want);
}

}  // namespace
}  // namespace mdn::net
