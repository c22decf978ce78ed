// common::ForkJoinPool at real scale: many back-to-back runs across four
// threads (the tsan job runs this binary), the serial one-thread pool,
// worker start-up and exception forwarding.  tests/model/ explores the
// hand-off itself schedule by schedule.
#include "common/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mdn::common {
namespace {

TEST(ForkJoinPool, RunsEveryTaskOncePerRun) {
  ForkJoinPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> ran(9, 0);
  std::vector<int> expected(9, 0);
  for (std::size_t run = 0; run < 500; ++run) {
    const std::size_t tasks = run % ran.size();  // 0 tasks included
    pool.run(tasks, [&ran](std::size_t i) { ++ran[i]; });
    for (std::size_t i = 0; i < tasks; ++i) ++expected[i];
    ASSERT_EQ(ran, expected) << "after run " << run;
  }
}

TEST(ForkJoinPool, OneThreadRunsEveryTaskOnTheCaller) {
  ForkJoinPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::thread::id> ran_on(5);
  pool.run(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(ForkJoinPool, InitRunsOnEveryWorkerBeforeTheConstructorReturns) {
  std::atomic<int> inits{0};
  std::atomic<bool> on_caller{false};
  const std::thread::id caller = std::this_thread::get_id();
  ForkJoinPool pool(3, [&] {
    ++inits;
    if (std::this_thread::get_id() == caller) on_caller = true;
  });
  EXPECT_EQ(inits.load(), 2);
  EXPECT_FALSE(on_caller.load());
}

TEST(ForkJoinPool, RethrowsTheFirstExceptionOnceEveryTaskReturns) {
  ForkJoinPool pool(4);
  std::atomic<int> finished{0};
  const auto task = [&finished](std::size_t i) {
    if (i == 3 || i == 5) throw std::runtime_error("task failed");
    ++finished;
  };
  EXPECT_THROW(pool.run(8, task), std::runtime_error);
  EXPECT_EQ(finished.load(), 6) << "the other tasks still ran";
  // The error went to the run that raised it; the next run is clean.
  std::atomic<int> again{0};
  pool.run(8, [&again](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 8);
}

TEST(ForkJoinPool, ThrowingInitJoinsTheWorkersAndRethrows) {
  std::atomic<int> inits{0};
  EXPECT_THROW(ForkJoinPool(3,
                            [&inits] {
                              if (++inits == 1) {
                                throw std::runtime_error("init failed");
                              }
                            }),
               std::runtime_error);
  EXPECT_EQ(inits.load(), 2);
}

}  // namespace
}  // namespace mdn::common
