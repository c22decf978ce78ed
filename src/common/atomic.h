// Schedule-instrumentation shim over std::atomic.
//
// The lock-free protocols of the runtime (rt/ring_buffer.h, the
// obs::Health alert ring, the dsp SIMD dispatch flag) declare their
// shared state through this header instead of <atomic> directly:
//
//   check::Atomic<T>  — std::atomic<T>, verbatim, in normal builds
//                       (an alias template: zero overhead by
//                       construction, bit-for-bit the old layout);
//                       under -DMDN_MODEL_CHECK a wrapper that routes
//                       every load/store/RMW through the
//                       check::Scheduler as a scheduling point, with
//                       release/acquire vector-clock bookkeeping.
//                       wait/notify_one/notify_all are modelled too: a
//                       waiter parks until a notify wakes it, so a
//                       lost wake-up surfaces as a deadlock.
//   check::Cell<T>    — a NON-atomic value published *through* an
//                       Atomic (a ring slot's payload).  Plain storage
//                       in normal builds; under the model checker each
//                       read/write is a scheduling point checked
//                       against the happens-before clocks, so a
//                       missing release/acquire edge on the guarding
//                       atomic surfaces as a data race on the Cell.
//   check::fence      — std::atomic_thread_fence, modelled
//                       conservatively (over-synchronizes: it can miss
//                       races around standalone fences, never invent
//                       them).  The tree currently has no standalone
//                       fences; prefer orders on the ops themselves.
//
// Only model threads (spawned via check::thread inside
// check::explore()) are instrumented; any other thread touching these
// objects — even in a model-check build — takes the plain std::atomic
// path.  See src/common/check.h and DESIGN.md §11.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace mdn::check {

#ifndef MDN_MODEL_CHECK

/// Normal builds: the shim IS std::atomic (alias, not a wrapper), so
/// "zero overhead" is a tautology rather than a benchmark claim.
template <typename T>
using Atomic = std::atomic<T>;

inline void fence(std::memory_order order) noexcept {
  std::atomic_thread_fence(order);
}

/// Plain storage with the instrumented API surface compiled away.
template <typename T>
class Cell {
 public:
  Cell() = default;

  /// Direct reference for callers that need in-place access (normal
  /// builds only semantics-wise identical to the instrumented ops).
  T& raw() noexcept { return value_; }
  const T& raw() const noexcept { return value_; }

  template <typename U>
  void write(U&& v) {
    value_ = std::forward<U>(v);
  }

  /// Move the value out (a read-modify-write of the cell).
  T take() noexcept { return std::move(value_); }

  /// Copy the value out (a read of the cell).
  T read() const { return value_; }

 private:
  T value_{};
};

#else  // MDN_MODEL_CHECK -------------------------------------------------

namespace detail {

/// Narrow an atomic value to 64 bits for trace rendering.  Values wider
/// than 8 bytes render as 0 (the trace still shows op/location/order).
template <typename T>
std::uint64_t trace_value(const T& v) noexcept {
  std::uint64_t out = 0;
  if constexpr (sizeof(T) <= sizeof(out)) {
    std::memcpy(&out, &v, sizeof(T));
  }
  return out;
}

inline int order_code(std::memory_order order) noexcept {
  return static_cast<int>(order);
}

}  // namespace detail

/// Instrumented atomic: storage stays a real std::atomic (so non-model
/// threads keep correct concurrent semantics), but model threads park
/// at a scheduling point before every operation and feed the
/// happens-before clocks after it.
template <typename T>
class Atomic {
 public:
  Atomic() noexcept = default;
  constexpr Atomic(T v) noexcept : storage_(v) {}  // NOLINT(google-explicit-constructor)

  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    if (detail::active_here()) {
      const int loc = detail::schedule_op(detail::OpKind::kLoad, this,
                                          nullptr, detail::order_code(order));
      const T v = storage_.load(order);
      detail::on_atomic_load(loc, detail::order_code(order),
                             detail::trace_value(v));
      return v;
    }
    return storage_.load(order);
  }

  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (detail::active_here()) {
      const int loc = detail::schedule_op(detail::OpKind::kStore, this,
                                          nullptr, detail::order_code(order));
      storage_.store(v, order);
      detail::on_atomic_store(loc, detail::order_code(order),
                              detail::trace_value(v));
      return;
    }
    storage_.store(v, order);
  }

  T exchange(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (detail::active_here()) {
      const int loc = detail::schedule_op(detail::OpKind::kRmw, this, nullptr,
                                          detail::order_code(order));
      const T old = storage_.exchange(v, order);
      detail::on_atomic_rmw(loc, detail::order_code(order),
                            detail::trace_value(v));
      return old;
    }
    return storage_.exchange(v, order);
  }

  T fetch_add(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (detail::active_here()) {
      const int loc = detail::schedule_op(detail::OpKind::kRmw, this, nullptr,
                                          detail::order_code(order));
      const T old = storage_.fetch_add(v, order);
      detail::on_atomic_rmw(loc, detail::order_code(order),
                            detail::trace_value(static_cast<T>(old + v)));
      return old;
    }
    return storage_.fetch_add(v, order);
  }

  T fetch_sub(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (detail::active_here()) {
      const int loc = detail::schedule_op(detail::OpKind::kRmw, this, nullptr,
                                          detail::order_code(order));
      const T old = storage_.fetch_sub(v, order);
      detail::on_atomic_rmw(loc, detail::order_code(order),
                            detail::trace_value(static_cast<T>(old - v)));
      return old;
    }
    return storage_.fetch_sub(v, order);
  }

  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return cas(expected, desired, order, cas_failure_order(order), false);
  }

  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order success,
                             std::memory_order failure) {
    return cas(expected, desired, success, failure, false);
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    return cas(expected, desired, order, cas_failure_order(order), true);
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) {
    return cas(expected, desired, success, failure, true);
  }

  /// std::atomic::wait: returns once the value differs from `old`.  A
  /// model thread loads the value (a scheduling point, with `order`'s
  /// happens-before effect) and, while it still equals `old`, parks
  /// until a notify on this atomic commits.  The load and the park run
  /// back to back with the token held, like a futex's check-and-sleep,
  /// so a notify sent before the park is lost and a waiter nobody
  /// notifies ends the schedule as a deadlock instead of hanging it.
  void wait(T old, std::memory_order order = std::memory_order_seq_cst) const {
    if (detail::active_here()) {
      while (load(order) == old) {
        if (!detail::wait_park(this)) return;  // schedule is unwinding
      }
      return;
    }
    storage_.wait(old, order);
  }

  /// Wakes one thread parked in wait() on this atomic; under the model
  /// checker, the lowest-numbered one.
  void notify_one() {
    if (detail::active_here()) detail::notify(this, false);
    storage_.notify_one();
  }

  /// Wakes every thread parked in wait() on this atomic.
  void notify_all() {
    if (detail::active_here()) detail::notify(this, true);
    storage_.notify_all();
  }

 private:
  static constexpr std::memory_order cas_failure_order(
      std::memory_order success) noexcept {
    switch (success) {
      case std::memory_order_acq_rel:
        return std::memory_order_acquire;
      case std::memory_order_release:
        return std::memory_order_relaxed;
      default:
        return success;
    }
  }

  bool cas(T& expected, T desired, std::memory_order success,
           std::memory_order failure, bool strong) {
    if (detail::active_here()) {
      // Conservatively a RMW for sleep-set dependence even when it
      // fails (a failed CAS is really a load).
      const int loc = detail::schedule_op(detail::OpKind::kRmw, this, nullptr,
                                          detail::order_code(success));
      // Under the scheduler the thread runs alone, so weak CAS cannot
      // fail spuriously — weak and strong explore identical behaviour.
      const bool won =
          strong ? storage_.compare_exchange_strong(expected, desired, success,
                                                    failure)
                 : storage_.compare_exchange_weak(expected, desired, success,
                                                  failure);
      if (won) {
        detail::on_atomic_rmw(loc, detail::order_code(success),
                              detail::trace_value(desired));
      } else {
        detail::on_atomic_load(loc, detail::order_code(failure),
                               detail::trace_value(expected));
      }
      return won;
    }
    return strong ? storage_.compare_exchange_strong(expected, desired,
                                                     success, failure)
                  : storage_.compare_exchange_weak(expected, desired, success,
                                                   failure);
  }

  mutable std::atomic<T> storage_{};
};

inline void fence(std::memory_order order) {
  if (detail::active_here()) {
    detail::schedule_op(detail::OpKind::kFence, nullptr, "fence",
                        detail::order_code(order));
    std::atomic_thread_fence(order);
    detail::on_fence(detail::order_code(order));
    return;
  }
  std::atomic_thread_fence(order);
}

/// Instrumented non-atomic cell: every model-thread access is a
/// scheduling point and a happens-before race check.
template <typename T>
class Cell {
 public:
  Cell() = default;

  T& raw() noexcept { return value_; }
  const T& raw() const noexcept { return value_; }

  template <typename U>
  void write(U&& v) {
    if (detail::active_here()) {
      const int loc =
          detail::schedule_op(detail::OpKind::kCellWrite, this, nullptr, 0);
      value_ = std::forward<U>(v);
      detail::on_cell_write(loc);
      return;
    }
    value_ = std::forward<U>(v);
  }

  T take() {
    if (detail::active_here()) {
      // Moving-from mutates the cell: model as a write for dependence
      // and race purposes.
      const int loc =
          detail::schedule_op(detail::OpKind::kCellWrite, this, nullptr, 0);
      T out = std::move(value_);
      detail::on_cell_write(loc);
      return out;
    }
    return std::move(value_);
  }

  T read() const {
    if (detail::active_here()) {
      const int loc =
          detail::schedule_op(detail::OpKind::kCellRead, this, nullptr, 0);
      T out = value_;
      detail::on_cell_read(loc);
      return out;
    }
    return value_;
  }

 private:
  mutable T value_{};
};

#endif  // MDN_MODEL_CHECK

}  // namespace mdn::check
