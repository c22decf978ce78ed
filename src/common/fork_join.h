// A fork-join pool: run(n, task) calls task(i) once for every i in
// [0, n) across the calling thread and the pool's workers, and returns
// when every call has returned.
//
// core::Fleet owns one to capture its rooms side by side inside one
// event-loop callback (DESIGN.md §5, "Threading model").  The hand-off
// is two counters:
//
//   ticket_   (run epoch << 32) | tasks not yet claimed.  run() writes
//             the job, then publishes the ticket with a release store.
//             A thread claims a task by decrementing the ticket with an
//             acquire CAS, so the job it reads next is the one that
//             ticket published.
//   pending_  tasks claimed but not finished (while the constructor
//             runs: workers not yet started).  Each finished task
//             decrements it with release, and the decrement to zero
//             notifies the caller, whose acquire load then sees every
//             task's writes.
//
// A thread reads the job only right after a successful claim, and once
// it has counted its task finished it touches nothing but the two
// atomics, so run() may write the next job as soon as pending_ reads
// zero.  An idle thread polls an unchanged counter 4,096 times, then
// blocks in wait(); under the model checker it polls once, which still
// explores both "poll, then block" and "see the change while polling".
// Shared state goes through check::Atomic, check::Cell and
// check::thread, so tests/model/test_model_fork_join.cpp explores the
// hand-off under the model checker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/atomic.h"
#include "common/check.h"

namespace mdn::common {

class ForkJoinPool {
 public:
  /// A pool of `threads` threads, the caller included: threads - 1
  /// workers start here, each runs `init` (when set) once — to warm its
  /// thread-local scratch, say — and the constructor returns after all
  /// of them have; if one throws, the constructor joins the workers and
  /// rethrows.  With threads <= 1 there is no worker and run() calls
  /// every task on the caller.
  explicit ForkJoinPool(std::size_t threads,
                        const std::function<void()>& init = {});
  /// Stops and joins the workers.
  ~ForkJoinPool() MDN_CHECK_DTOR_NOEXCEPT;

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// Threads that run tasks, the caller included.
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Calls task(i) for every i in [0, tasks), on any pool thread and in
  /// any order, and returns once all have returned; every write a task
  /// makes happens-before the return.  A task that throws does not stop
  /// the others: once all have returned, run() rethrows the first
  /// exception.  One caller at a time.  Throws std::length_error past
  /// 2^32 - 1 tasks.
  template <typename Task>
  void run(std::size_t tasks, Task&& task) {
    run_job(tasks,
            Job{&call<std::remove_reference_t<Task>>,
                const_cast<void*>(static_cast<const void*>(&task))});
  }

 private:
  struct Job {
    void (*fn)(void* ctx, std::size_t index) = nullptr;
    void* ctx = nullptr;
  };
  template <typename Task>
  static void call(void* ctx, std::size_t index) {
    (*static_cast<Task*>(ctx))(index);
  }

  void run_job(std::size_t tasks, Job job);
  void work();
  void stop();
  /// Keeps `error` for the caller when it is the first since the last
  /// rethrow_kept().
  void keep(std::exception_ptr error);
  /// Rethrows the kept exception, if any; caller only, after a join.
  void rethrow_kept();
  /// Claims and runs tasks of the run `ticket` announces until none is
  /// left to claim; returns the last ticket value seen.
  std::uint64_t drain(std::uint64_t ticket);
  /// The first ticket value other than `seen`.
  std::uint64_t await_ticket(std::uint64_t seen) const;
  /// Returns once pending_ reads zero.
  void await_pending() const;
  void finish_one();

  std::uint32_t epoch_ = 0;  // caller-owned: the last run's epoch
  check::Cell<Job> job_;
  check::Atomic<std::uint64_t> ticket_{0};
  check::Atomic<std::uint32_t> pending_{0};
  // The first exception a task or `init` threw; published to the caller
  // with the thrower's finish_one().
  check::Atomic<bool> failed_{false};
  check::Cell<std::exception_ptr> error_;
  std::vector<std::unique_ptr<check::thread>> workers_;
};

}  // namespace mdn::common
