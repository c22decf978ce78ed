// Self-test of the mdn::check scheduler: before trusting the checker on
// the runtime's protocols, prove it (a) finds textbook bugs — lost
// updates, relaxed publication — with replayable counterexamples, and
// (b) stays quiet on correctly synchronized versions of the same code.

#include <gtest/gtest.h>

#include "common/atomic.h"
#include "common/check.h"
#include "common/mutex.h"
#include "model_test_util.h"

namespace mdn {
namespace {

TEST(ModelSelftest, CountsInterleavingsOfIndependentStores) {
  // Two threads, two private locations: every interleaving is explored
  // (sleep sets off so the raw count is the combinatorial one).
  check::Options options;
  options.sleep_sets = false;
  long total = 0;
  const check::Result result = check::explore(options, [&] {
    check::Atomic<int> a{0};
    check::Atomic<int> b{0};
    check::thread t1([&] {
      a.store(1, std::memory_order_relaxed);
      a.store(2, std::memory_order_relaxed);
      a.store(3, std::memory_order_relaxed);
    });
    check::thread t2([&] {
      b.store(1, std::memory_order_relaxed);
      b.store(2, std::memory_order_relaxed);
      b.store(3, std::memory_order_relaxed);
    });
    t1.join();
    t2.join();
    ++total;
  });
  EXPECT_TRUE(result.ok) << result.first_failure;
  EXPECT_TRUE(result.complete);
  // 3+3 steps interleave in C(6,3) = 20 ways, but the spawn/join points
  // of the two threads interleave too, so the raw count is larger; what
  // matters is that every counted schedule actually ran the body.
  EXPECT_EQ(result.schedules, total);
  EXPECT_GE(result.schedules, 20);
}

TEST(ModelSelftest, SleepSetsPruneCommutingSchedules) {
  // Same body explored with partial-order reduction: strictly fewer
  // schedules, same verdict (the pruned ones only reorder independent
  // operations).
  const auto body = [] {
    check::Atomic<int> a{0};
    check::Atomic<int> b{0};
    check::thread t1([&] {
      a.store(1, std::memory_order_relaxed);
      a.store(2, std::memory_order_relaxed);
    });
    check::thread t2([&] {
      b.store(1, std::memory_order_relaxed);
      b.store(2, std::memory_order_relaxed);
    });
    t1.join();
    t2.join();
  };
  check::Options raw;
  raw.sleep_sets = false;
  const check::Result full = check::explore(raw, body);
  const check::Result reduced = check::explore(check::Options{}, body);
  EXPECT_TRUE(full.ok);
  EXPECT_TRUE(reduced.ok);
  EXPECT_TRUE(reduced.complete);
  EXPECT_LT(reduced.schedules, full.schedules)
      << "sleep sets pruned nothing on a fully-commuting body";
}

TEST(ModelSelftest, CatchesLostUpdateOnUnsynchronizedCell) {
  // The classic read-modify-write race: two threads increment a plain
  // cell.  The checker must flag the unsynchronized accesses.
  check::Options options;
  const auto body = [] {
    check::Cell<int> counter;
    counter.raw() = 0;
    check::thread t1([&] { counter.write(counter.read() + 1); });
    check::thread t2([&] { counter.write(counter.read() + 1); });
    t1.join();
    t2.join();
  };
  const check::Result result = check::explore(options, body);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.first_failure.find("data race"), std::string::npos)
      << result.first_failure;
  model::expect_caught_and_replayable(options, result, body);
}

TEST(ModelSelftest, MutexMakesTheSameIncrementClean) {
  check::Options options;
  const check::Result result = check::explore(options, [] {
    common::Mutex mu;
    check::Cell<int> counter;
    counter.raw() = 0;
    const auto bump = [&] {
      common::MutexLock lock(mu);
      counter.write(counter.read() + 1);
    };
    check::thread t1(bump);
    check::thread t2(bump);
    t1.join();
    t2.join();
    MDN_CHECK(counter.read() == 2);
  });
  EXPECT_TRUE(result.ok) << result.first_failure;
  EXPECT_TRUE(result.complete);
}

TEST(ModelSelftest, ReleaseAcquirePublicationIsClean) {
  check::Options options;
  const check::Result result = check::explore(options, [] {
    check::Atomic<int> flag{0};
    check::Cell<int> payload;
    check::thread writer([&] {
      payload.write(42);
      flag.store(1, std::memory_order_release);
    });
    check::thread reader([&] {
      if (flag.load(std::memory_order_acquire) == 1) {
        MDN_CHECK(payload.read() == 42);
      }
    });
    writer.join();
    reader.join();
  });
  EXPECT_TRUE(result.ok) << result.first_failure;
  EXPECT_TRUE(result.complete);
}

TEST(ModelSelftest, RelaxedPublicationIsARace) {
  // Identical body, release weakened to relaxed: the reader's payload
  // access no longer happens-after the write, and *some* schedule shows
  // it — exactly the bug class the ring harnesses rely on catching.
  check::Options options;
  const auto body = [] {
    check::Atomic<int> flag{0};
    check::Cell<int> payload;
    check::thread writer([&] {
      payload.write(42);
      flag.store(1, std::memory_order_relaxed);
    });
    check::thread reader([&] {
      if (flag.load(std::memory_order_acquire) == 1) {
        (void)payload.read();
      }
    });
    writer.join();
    reader.join();
  };
  const check::Result result = check::explore(options, body);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.first_failure.find("data race"), std::string::npos)
      << result.first_failure;
  model::expect_caught_and_replayable(options, result, body);
}

TEST(ModelSelftest, DetectsDeadlock) {
  check::Options options;
  const auto body = [] {
    common::Mutex a;
    common::Mutex b;
    check::thread t1([&] {
      a.lock();
      b.lock();
      b.unlock();
      a.unlock();
    });
    check::thread t2([&] {
      b.lock();
      a.lock();
      a.unlock();
      b.unlock();
    });
    t1.join();
    t2.join();
  };
  const check::Result result = check::explore(options, body);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.first_failure.find("deadlock"), std::string::npos)
      << result.first_failure;
}

// check::Atomic::wait parks until a notify: a waker that stores then
// notifies always frees the waiter; one that forgets the notify leaves
// it parked on some schedule, which the checker reports as a deadlock
// (the lost wake-up) instead of hanging.
void wake_once(bool notify) {
  check::Atomic<int> flag{0};
  check::Cell<int> payload;
  check::thread waker([&] {
    payload.write(7);
    flag.store(1, std::memory_order_release);
    if (notify) flag.notify_one();
  });
  flag.wait(0, std::memory_order_acquire);
  MDN_CHECK(payload.read() == 7);
  waker.join();
}

TEST(ModelSelftest, WaitWakesOnNotify) {
  check::Options options;
  const check::Result result =
      check::explore(options, [] { wake_once(true); });
  EXPECT_TRUE(result.ok) << result.first_failure;
  EXPECT_TRUE(result.complete);
  EXPECT_GE(result.schedules, 2) << "the waiter parks on some schedules";
}

TEST(ModelSelftest, WaitWithoutNotifyIsALostWakeUp) {
  check::Options options;
  const auto body = [] { wake_once(false); };
  const check::Result result = check::explore(options, body);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.first_failure.find("deadlock"), std::string::npos)
      << result.first_failure;
  model::expect_caught_and_replayable(options, result, body);
}

TEST(ModelSelftest, MdnCheckFailureCarriesATimeline) {
  check::Options options;
  const check::Result result = check::explore(options, [] {
    check::Atomic<int> x{0};
    check::thread t([&] { x.store(1, std::memory_order_relaxed); });
    const int seen = x.load(std::memory_order_relaxed);
    t.join();
    MDN_CHECK(seen == 0);  // fails on schedules where the store won
  });
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.first_failure.find("MDN_CHECK failed"), std::string::npos);
  EXPECT_NE(result.first_failure.find("timeline"), std::string::npos)
      << result.first_failure;
}

TEST(ModelSelftest, PreemptionBoundCapsTheSpace) {
  // With zero preemptions allowed, each thread runs to completion once
  // scheduled: the two-thread body has very few schedules.
  check::Options tight;
  tight.max_preemptions = 0;
  tight.sleep_sets = false;
  const check::Result result = check::explore(tight, [] {
    check::Atomic<int> x{0};
    check::thread t1([&] {
      x.store(1, std::memory_order_relaxed);
      x.store(2, std::memory_order_relaxed);
    });
    check::thread t2([&] {
      x.store(3, std::memory_order_relaxed);
      x.store(4, std::memory_order_relaxed);
    });
    t1.join();
    t2.join();
  });
  EXPECT_TRUE(result.ok) << result.first_failure;
  EXPECT_TRUE(result.complete);
  EXPECT_LE(result.schedules, 16);
}

}  // namespace
}  // namespace mdn
