#include "common/fork_join.h"

#include <stdexcept>

namespace mdn::common {
namespace {

constexpr std::uint64_t kTaskMask = 0xffffffffu;
// The ticket that stops the workers: an epoch run() never issues, with
// no task to claim.
constexpr std::uint32_t kStopEpoch = 0xffffffffu;
constexpr std::uint64_t kStop = std::uint64_t{kStopEpoch} << 32;

// Polls of an unchanged counter before an idle thread blocks: about
// 90 us on a 4-thread Xeon, shorter than a fleet's gap between hops.
// The model checker explores every interleaving of each poll, so there
// one poll stands for them all.
#ifdef MDN_MODEL_CHECK
constexpr std::uint32_t kSpin = 1;
#else
constexpr std::uint32_t kSpin = 1u << 12;
#endif

// One poll's back-off: a pause hint eases a spinning core's pressure on
// its hyperthread sibling.
inline void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

ForkJoinPool::ForkJoinPool(std::size_t threads,
                           const std::function<void()>& init) {
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  // Each worker checks in through pending_ once `init` has run, which is
  // also the last time it touches `init`.
  pending_.store(static_cast<std::uint32_t>(workers));
  workers_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      workers_.push_back(std::make_unique<check::thread>([this, &init] {
        try {
          if (init) init();
        } catch (...) {
          keep(std::current_exception());
        }
        finish_one();
        work();
      }));
    }
    await_pending();
    rethrow_kept();
  } catch (...) {
    stop();
    throw;
  }
}

ForkJoinPool::~ForkJoinPool() MDN_CHECK_DTOR_NOEXCEPT { stop(); }

void ForkJoinPool::stop() {
  ticket_.store(kStop);
  ticket_.notify_all();
  for (auto& worker : workers_) worker->join();
}

void ForkJoinPool::run_job(std::size_t tasks, Job job) {
  if (tasks == 0) return;
  if (tasks > kTaskMask) {
    throw std::length_error("ForkJoinPool: more than 2^32 - 1 tasks");
  }
  job_.write(job);
  // mo: published with the job by the ticket's release store below
  pending_.store(static_cast<std::uint32_t>(tasks), std::memory_order_relaxed);
  if (++epoch_ == kStopEpoch) epoch_ = 0;
  const std::uint64_t ticket = std::uint64_t{epoch_} << 32 | tasks;
  // mo: release publishes job_ and pending_ to every claim's acquire CAS
  ticket_.store(ticket, std::memory_order_release);
  ticket_.notify_all();
  drain(ticket);
  await_pending();
  rethrow_kept();
}

void ForkJoinPool::work() {
  std::uint64_t ticket = 0;  // the last value this worker saw
  while ((ticket = await_ticket(ticket)) != kStop) {
    ticket = drain(ticket);
    // A stale claim can fail onto the stop ticket.
    if (ticket == kStop) return;
  }
}

std::uint64_t ForkJoinPool::drain(std::uint64_t ticket) {
  while ((ticket & kTaskMask) != 0) {
    // mo: acquire pairs with run_job's release store, so the job read next is this ticket's; a failed claim only refreshes the ticket
    if (!ticket_.compare_exchange_weak(ticket, ticket - 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      continue;
    }
    const Job job = job_.read();
    try {
      job.fn(job.ctx, static_cast<std::size_t>(ticket & kTaskMask) - 1);
    } catch (...) {
      keep(std::current_exception());
    }
    finish_one();
    --ticket;
  }
  return ticket;
}

void ForkJoinPool::keep(std::exception_ptr error) {
  if (!failed_.exchange(true)) error_.write(std::move(error));
}

void ForkJoinPool::rethrow_kept() {
  if (!failed_.load()) return;
  failed_.store(false);
  std::rethrow_exception(error_.take());
}

void ForkJoinPool::finish_one() {
  // mo: release hands the task's writes to await_pending's acquire load
  if (pending_.fetch_sub(1, std::memory_order_release) == 1) {
    pending_.notify_one();
  }
}

std::uint64_t ForkJoinPool::await_ticket(std::uint64_t seen) const {
  for (std::uint32_t polls = 0;; ++polls) {
    // mo: change detection only; drain's claim CAS acquires the job
    const std::uint64_t ticket = ticket_.load(std::memory_order_relaxed);
    if (ticket != seen) return ticket;
    if (polls < kSpin) {
      relax();
    } else {
      // mo: as the load above; run_job and stop notify after storing
      ticket_.wait(seen, std::memory_order_relaxed);
    }
  }
}

void ForkJoinPool::await_pending() const {
  for (std::uint32_t polls = 0;; ++polls) {
    // mo: acquire pairs with finish_one's release decrements
    const std::uint32_t left = pending_.load(std::memory_order_acquire);
    if (left == 0) return;
    if (polls < kSpin) {
      relax();
    } else {
      // mo: as the load above; the decrement to zero notifies
      pending_.wait(left, std::memory_order_acquire);
    }
  }
}

}  // namespace mdn::common
