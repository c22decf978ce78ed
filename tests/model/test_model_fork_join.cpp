// Model-checked hand-off of common::ForkJoinPool (core::Fleet's room
// capture): the caller and two workers share two back-to-back runs of
// three tasks.  Across every explored interleaving each task runs
// exactly once per run, the caller sees every task's write when run()
// returns (the per-task check::Cell read is race-checked against the
// ticket/pending release-acquire edges), and shutdown joins both
// workers with no lost wake-up (a worker left parked in wait() would
// end the schedule as a deadlock).

#include <gtest/gtest.h>

#include <cstddef>

#include "common/atomic.h"
#include "common/check.h"
#include "common/fork_join.h"
#include "model_test_util.h"

namespace mdn {
namespace {

constexpr std::size_t kTasks = 3;

// The pool's body: two runs, each task bumping its own cell.  Under the
// model checker an idle thread polls an unchanged counter once before
// it blocks, so the schedules cover a thread that sees the next ticket
// while polling and one that blocks first and is woken.
void two_runs() {
  check::Cell<int> ran[kTasks];
  {
    common::ForkJoinPool pool(3);
    MDN_CHECK(pool.size() == 3);
    for (int run = 1; run <= 2; ++run) {
      pool.run(kTasks, [&ran](std::size_t i) {
        ran[i].write(ran[i].read() + 1);
      });
      for (std::size_t i = 0; i < kTasks; ++i) MDN_CHECK(ran[i].read() == run);
    }
  }  // ~ForkJoinPool: stop ticket, notify, join both workers
}

TEST(ModelForkJoin, EachTaskRunsOncePerRunAndPublishesToTheCaller) {
  check::Options options;
  options.max_preemptions = 2;
  const check::Result result = check::explore(options, two_runs);
  model::expect_exhaustive(result);
}

}  // namespace
}  // namespace mdn
