// mdn::check — a loom-style deterministic concurrency model checker.
//
// The lock-free runtime (rt::RingBuffer, the obs::Health alert ring,
// the SIMD dispatch flag) is only as trustworthy as the schedules tsan
// happens to see on CI hardware.  This layer makes the schedules the
// test input: under -DMDN_MODEL_CHECK every load/store/RMW routed
// through check::Atomic / check::Cell (src/common/atomic.h) and every
// common::Mutex acquisition becomes a *scheduling point*, and
// check::explore() re-runs a test body over every interleaving a
// bounded-preemption DFS can reach:
//
//   * threads are real std::threads, but exactly one runs at a time —
//     at each scheduling point the scheduler decides (and records)
//     which pending operation commits next, so every execution is a
//     deterministic function of its decision sequence;
//   * the DFS backtracks over those decisions with a partial-order-
//     reduction sleep set (two adjacent operations on different
//     locations — or two reads — commute, so only one of their orders
//     is explored) and a preemption bound (schedules needing more than
//     `max_preemptions` involuntary switches are pruned);
//   * release/acquire edges maintain per-thread vector clocks, and
//     check::Cell accesses are checked against them — a relaxed store
//     that should have been a release shows up as a data race on the
//     value it was meant to publish, on *some* explored schedule;
//   * failures (MDN_CHECK, races, deadlocks, lock misuse) abort the
//     execution and render a per-thread op timeline plus the decision
//     sequence as a replay seed: feed it back via Options::replay to
//     re-run exactly that schedule under a debugger.
//
// In normal builds (no MDN_MODEL_CHECK) explore() runs the body once
// with plain threads and the shim compiles to std::atomic — zero
// overhead, zero behaviour change.  See DESIGN.md §11.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <thread>

// Under the model checker an instrumented operation tears down a
// pruned/failed schedule by throwing (the scheduler's internal unwind
// signal) — so a product function on a model-checked path must not
// promise noexcept in model builds, or the unwind hits a noexcept
// frame and terminates the process.  Normal builds keep the promise.
#ifdef MDN_MODEL_CHECK
#define MDN_CHECK_NOEXCEPT
// Destructors default to noexcept: ones that contain scheduling points
// (MutexLock's unlock) must opt out explicitly in model builds.
#define MDN_CHECK_DTOR_NOEXCEPT noexcept(false)
#else
#define MDN_CHECK_NOEXCEPT noexcept
#define MDN_CHECK_DTOR_NOEXCEPT
#endif

namespace mdn::check {

/// Exploration limits.  The defaults suit the tests/model harnesses:
/// 2–3 threads, a handful of operations each, full exploration within
/// the preemption bound in well under ten seconds.
struct Options {
  /// Involuntary context switches allowed per schedule.  Almost every
  /// real concurrency bug needs very few preemptions (CHESS's classic
  /// observation); the bound keeps the DFS polynomial-ish.
  int max_preemptions = 4;
  /// Hard cap on executions; exploration stops (complete=false) beyond
  /// it.  A safety net against state-space blowups, not a tuning knob.
  long max_schedules = 500000;
  /// Per-execution step cap (guards against accidental live-lock in
  /// harness code: a spin loop never bounded by the schedule).
  long max_steps = 100000;
  /// Sleep-set partial-order reduction.  Disable to count/visit every
  /// raw interleaving (slower, never wrong).
  bool sleep_sets = true;
  /// Stop at the first failing schedule (the counterexample is what
  /// matters; later failures are usually the same bug).
  bool stop_on_failure = true;
  /// Replay seed: a decision sequence as printed in a counterexample
  /// ("0,1,1,0,…").  When set, exactly that one schedule runs.
  std::string replay;
};

/// Exploration outcome.  `schedules` counts distinct decision
/// sequences executed — the number asserted by the tests/model
/// harnesses.
struct Result {
  long schedules = 0;   ///< executions run (each a distinct schedule)
  long pruned = 0;      ///< executions cut short by sleep-set redundancy
  long failures = 0;    ///< executions that failed
  bool complete = false;  ///< DFS exhausted within bounds and caps
  bool ok = true;         ///< no failure observed
  std::string first_failure;     ///< rendered counterexample timeline
  std::string failing_schedule;  ///< replay seed of the first failure
};

/// Explores every schedule of `body` (bounded as per `options`).  The
/// body runs once per schedule on the calling thread (model thread 0);
/// it spawns peers with check::thread and must join them all before
/// returning.  Not reentrant: one exploration at a time per process.
Result explore(const Options& options, const std::function<void()>& body);

/// True while the calling thread is a model thread inside explore().
bool active() noexcept;

/// Records a failure on the current schedule and aborts it (the other
/// model threads unwind, explore() moves to the next schedule).  When
/// no exploration is active this aborts the process (assertion-style).
[[noreturn]] void fail(const char* file, int line, const char* message);

/// Condition check usable inside a model harness body or any model
/// thread; failure aborts the current schedule with a counterexample.
#define MDN_CHECK(cond)                                     \
  do {                                                      \
    if (!(cond)) ::mdn::check::fail(__FILE__, __LINE__, #cond); \
  } while (0)

/// A model thread: std::thread in normal builds, a scheduler-governed
/// thread under MDN_MODEL_CHECK.  Join before the owning scope ends
/// (no detach — the scheduler owns termination).
class thread {
 public:
  explicit thread(std::function<void()> fn);
  ~thread();

  thread(const thread&) = delete;
  thread& operator=(const thread&) = delete;

  void join();

 private:
  std::thread impl_;
  int model_id_ = -1;
  bool joined_ = false;
};

// ---------------------------------------------------------------------------
// Scheduler hooks used by the instrumented shim (src/common/atomic.h,
// src/common/mutex.h).  Call-sites guard on `active_here()` so normal
// threads (and normal builds) never pay for a function call.

namespace detail {

enum class OpKind : std::uint8_t {
  kLoad = 0,
  kStore,
  kRmw,
  kFence,
  kCellRead,
  kCellWrite,
  kMutexLock,
  kMutexUnlock,
  kMutexTryLock,
  kSpawn,
  kJoin,
  kWait,
  kNotify,
};

#ifdef MDN_MODEL_CHECK
/// True iff the calling thread is a registered model thread of a live
/// exploration (thread-local; non-model threads always get false).
bool active_here() noexcept;

/// One scheduling point: parks until the scheduler commits this
/// thread's `kind` op on location `addr` (registered lazily; `name` is
/// a trace label, may be null).  Returns an opaque location id.
/// Throws the internal abort exception when the schedule is being torn
/// down — instrumented code must let it propagate.
int schedule_op(OpKind kind, const void* addr, const char* name, int order);

/// Post-commit hooks, called with the token still held (the thread
/// runs alone until its next scheduling point).
void on_atomic_load(int loc, int order, std::uint64_t value);
void on_atomic_store(int loc, int order, std::uint64_t value);
void on_atomic_rmw(int loc, int order, std::uint64_t value);
void on_fence(int order);
void on_cell_read(int loc);
void on_cell_write(int loc);

/// Mutex modelling (virtual ownership — the real std::mutex is NOT
/// taken on model threads; see common/mutex.h).
void mutex_lock(const void* addr, const char* name);
void mutex_unlock(const void* addr, const char* name);
bool mutex_try_lock(const void* addr, const char* name);

/// Atomic wait/notify modelling (common/atomic.h).  wait_park parks the
/// caller on the atomic at `addr` until a notify on it commits; the
/// caller has just loaded the value with the token held, so the check
/// and the park are one step.  It returns false, without parking, on a
/// thread unwinding a torn-down schedule.  notify wakes the
/// lowest-numbered parked waiter, or every one when `all`; with no
/// waiter parked it does nothing, so a wake-up sent early is lost.
bool wait_park(const void* addr);
void notify(const void* addr, bool all);

/// Names a location for counterexample rendering (no-op when the
/// location was never touched by a model thread).
void name_location(const void* addr, const char* name);
#else
inline bool active_here() noexcept { return false; }
inline void name_location(const void*, const char*) noexcept {}
#endif

}  // namespace detail

/// Labels `addr` (an Atomic/Cell/Mutex) in counterexample timelines.
/// Zero-cost in normal builds.
inline void name(const void* addr, const char* label) noexcept {
#ifdef MDN_MODEL_CHECK
  detail::name_location(addr, label);
#else
  (void)addr;
  (void)label;
#endif
}

}  // namespace mdn::check
