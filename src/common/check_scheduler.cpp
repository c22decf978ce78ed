// The mdn::check scheduler: bounded-preemption DFS over thread
// interleavings with sleep-set partial-order reduction, vector-clock
// happens-before tracking, and replayable counterexample traces.
//
// See src/common/check.h for the model and DESIGN.md §11 for the
// exploration algorithm.  Without -DMDN_MODEL_CHECK this file compiles
// the pass-through implementations only (explore runs the body once on
// plain threads), so the symbol set is identical in both build modes.

#include "common/check.h"

#include <cstdio>
#include <cstdlib>

#ifdef MDN_MODEL_CHECK

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

namespace mdn::check {
namespace {

using detail::OpKind;

constexpr int kMaxThreads = 8;

// --- happens-before clocks ------------------------------------------------

struct Clock {
  std::array<std::uint32_t, kMaxThreads> c{};

  void join(const Clock& o) noexcept {
    for (int i = 0; i < kMaxThreads; ++i) c[i] = std::max(c[i], o.c[i]);
  }
  void clear() noexcept { c.fill(0); }
};

/// One committed or pending operation, as used for trace rendering and
/// sleep-set dependence.
struct OpSig {
  OpKind kind = OpKind::kLoad;
  int loc = -1;  // -1: unknown/none (conservatively dependent)
};

bool op_writes(OpKind k) noexcept {
  switch (k) {
    case OpKind::kStore:
    case OpKind::kRmw:
    case OpKind::kCellWrite:
    case OpKind::kMutexLock:
    case OpKind::kMutexUnlock:
    case OpKind::kMutexTryLock:
    case OpKind::kWait:
    case OpKind::kNotify:
      return true;
    default:
      return false;
  }
}

bool op_global(OpKind k) noexcept {
  return k == OpKind::kFence || k == OpKind::kSpawn || k == OpKind::kJoin;
}

/// May the order of two adjacent ops matter?  Over-approximating keeps
/// sleep-set pruning sound (it only ever wakes more threads).
bool dependent(const OpSig& a, const OpSig& b) noexcept {
  if (op_global(a.kind) || op_global(b.kind)) return true;
  if (a.loc < 0 || b.loc < 0) return true;
  if (a.loc != b.loc) return false;
  return op_writes(a.kind) || op_writes(b.kind);
}

bool order_acquires(int order) noexcept {
  const auto mo = static_cast<std::memory_order>(order);
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}

bool order_releases(int order) noexcept {
  const auto mo = static_cast<std::memory_order>(order);
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

const char* order_name(int order) noexcept {
  switch (static_cast<std::memory_order>(order)) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cns";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "a/r";
    case std::memory_order_seq_cst: return "sc";
  }
  return "?";
}

/// Thrown out of scheduling points during teardown; trampolines and
/// explore() catch it — harness code must let it pass through.
struct ScheduleAborted {};

// --- per-location state ---------------------------------------------------

struct Location {
  enum class Kind : std::uint8_t { kAtomic, kCell, kMutex, kFence } kind =
      Kind::kAtomic;
  const void* addr = nullptr;
  const char* name = nullptr;
  // Atomics / mutexes: the clock an acquirer joins (release history).
  Clock sync;
  // Cells: FastTrack-style epochs.
  int writer = -1;                               // last writing thread
  std::uint32_t writer_clock = 0;                // its clock component
  std::array<std::uint32_t, kMaxThreads> readers{};  // per-thread read epochs
  // Mutexes: virtual ownership.
  int owner = -1;
};

struct TraceEvent {
  int step = 0;
  int tid = 0;
  OpKind kind = OpKind::kLoad;
  int loc = -1;
  int order = 0;
  std::uint64_t value = 0;
  bool has_value = false;
};

// --- threads --------------------------------------------------------------

struct ThreadState {
  enum class Status : std::uint8_t { kUnused, kRunning, kParked, kFinished };

  int id = 0;
  Status status = Status::kUnused;
  bool has_token = false;
  OpSig pending;
  int pending_order = 0;
  const char* pending_name = nullptr;
  int join_target = -1;
  bool notified = false;     // a notify reached this parked waiter
  Clock clock;
  std::thread handle;        // spawned threads only (id > 0)
  std::function<void()> fn;  // spawned threads only
};

// --- DFS nodes ------------------------------------------------------------

struct Node {
  std::vector<int> enabled;       // thread ids enabled at this point
  std::vector<bool> sleeping;     // per enabled index: inherited-asleep
  int last_runner = -1;           // thread whose op committed just before
  bool last_runner_enabled = false;
  int preemptions = 0;            // preemptions consumed up to this node
  int chosen = -1;
  std::vector<int> explored;      // choices already fully explored (sleep)
};

// --- the scheduler --------------------------------------------------------

class Scheduler;
Scheduler* g_scheduler = nullptr;                 // one exploration at a time
thread_local Scheduler* tls_scheduler = nullptr;  // set on model threads
thread_local int tls_thread_id = -1;

class Scheduler {
 public:
  Result run(const Options& options, const std::function<void()>& body);

  // Instrumentation entry points (see check.h).
  int schedule_op(OpKind kind, const void* addr, const char* name, int order);
  void on_atomic_load(int loc, int order, std::uint64_t value);
  void on_atomic_store(int loc, int order, std::uint64_t value);
  void on_atomic_rmw(int loc, int order, std::uint64_t value);
  void on_fence(int order);
  void on_cell_read(int loc);
  void on_cell_write(int loc);
  void mutex_lock(const void* addr, const char* name);
  void mutex_unlock(const void* addr, const char* name);
  bool mutex_try_lock(const void* addr, const char* name);
  void wait_park(const void* addr);
  void notify(const void* addr, bool all);
  void name_location(const void* addr, const char* name);

  int spawn_thread(std::function<void()> fn);
  void join_thread(int id);

  [[noreturn]] void fail_here(const char* file, int line, const char* message);

 private:
  int locate_locked(const void* addr, Location::Kind kind, const char* name);
  bool is_enabled_locked(const ThreadState& t) const;
  void choose_next_locked(std::unique_lock<std::mutex>& lk);
  void park_and_wait(std::unique_lock<std::mutex>& lk, ThreadState& me);
  void commit_locked(ThreadState& me);
  void filter_sleep_locked(const OpSig& committed);
  void record_failure_locked(const std::string& message);
  [[noreturn]] void abort_execution_locked(std::unique_lock<std::mutex>& lk);
  std::string render_failure_locked(const std::string& message) const;
  std::string decisions_string_locked() const;
  bool advance_to_next_schedule();
  void run_one_execution(const std::function<void()>& body);
  void trampoline(int id);

  Options options_;
  std::vector<int> replay_;

  std::mutex mu_;
  std::condition_variable cv_;

  // Per-execution state.
  std::array<ThreadState, kMaxThreads> threads_;
  int thread_count_ = 0;
  std::map<const void*, int> loc_ids_;
  std::vector<Location> locations_;
  std::vector<TraceEvent> trace_;
  std::vector<bool> asleep_ = std::vector<bool>(kMaxThreads, false);
  long steps_ = 0;
  std::size_t branch_index_ = 0;
  bool abort_ = false;
  bool pruned_ = false;
  bool failed_ = false;
  std::string failure_;
  Clock fence_sync_;  // conservative standalone-fence model

  // Cross-execution DFS state.
  std::vector<Node> nodes_;
  Result result_;
};

// --- exploration driver ---------------------------------------------------

Result Scheduler::run(const Options& options, const std::function<void()>& body) {
  options_ = options;
  replay_.clear();
  if (!options.replay.empty()) {
    std::stringstream ss(options.replay);
    std::string part;
    while (std::getline(ss, part, ',')) {
      if (!part.empty()) replay_.push_back(std::atoi(part.c_str()));
    }
  }

  g_scheduler = this;
  for (;;) {
    run_one_execution(body);
    if (pruned_) {
      ++result_.pruned;
    } else {
      ++result_.schedules;
    }
    if (failed_) {
      ++result_.failures;
      if (result_.first_failure.empty()) {
        std::unique_lock<std::mutex> lk(mu_);
        result_.first_failure = failure_;
        result_.failing_schedule = decisions_string_locked();
      }
      if (options_.stop_on_failure) break;
    }
    if (!replay_.empty()) break;  // replay runs exactly one schedule
    if (result_.schedules + result_.pruned >= options_.max_schedules) break;
    if (!advance_to_next_schedule()) {
      result_.complete = true;
      break;
    }
  }
  g_scheduler = nullptr;
  result_.ok = result_.failures == 0;
  return result_;
}

void Scheduler::run_one_execution(const std::function<void()>& body) {
  // Reset per-execution state.
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (auto& t : threads_) {
      t.status = ThreadState::Status::kUnused;
      t.has_token = false;
      t.pending = OpSig{};
      t.join_target = -1;
      t.notified = false;
      t.clock.clear();
      t.fn = nullptr;
    }
    thread_count_ = 1;
    threads_[0].id = 0;
    threads_[0].status = ThreadState::Status::kRunning;
    loc_ids_.clear();
    locations_.clear();
    trace_.clear();
    std::fill(asleep_.begin(), asleep_.end(), false);
    steps_ = 0;
    branch_index_ = 0;
    abort_ = false;
    pruned_ = false;
    failed_ = false;
    failure_.clear();
    fence_sync_.clear();
  }

  tls_scheduler = this;
  tls_thread_id = 0;
  try {
    body();
  } catch (const ScheduleAborted&) {
    // Torn down mid-schedule (failure, prune, or deadlock).
  }
  tls_scheduler = nullptr;
  tls_thread_id = -1;

  // Tear down stragglers (spawned threads the body never joined — only
  // possible on aborted schedules).
  {
    std::unique_lock<std::mutex> lk(mu_);
    threads_[0].status = ThreadState::Status::kFinished;
    if (!abort_) {
      bool unjoined = false;
      for (int i = 1; i < thread_count_; ++i) {
        if (threads_[i].status != ThreadState::Status::kFinished) {
          unjoined = true;
        }
      }
      if (unjoined) {
        record_failure_locked("body returned with unjoined check::thread(s)");
      }
    }
    abort_ = true;
    cv_.notify_all();
  }
  for (int i = 1; i < kMaxThreads; ++i) {
    if (threads_[i].handle.joinable()) threads_[i].handle.join();
  }
}

bool Scheduler::advance_to_next_schedule() {
  while (!nodes_.empty()) {
    Node& n = nodes_.back();
    n.explored.push_back(n.chosen);
    int next = -1;
    for (std::size_t i = 0; i < n.enabled.size(); ++i) {
      const int cand = n.enabled[i];
      if (n.sleeping[i]) continue;
      if (std::find(n.explored.begin(), n.explored.end(), cand) !=
          n.explored.end()) {
        continue;
      }
      const bool preempts = cand != n.last_runner && n.last_runner_enabled;
      if (preempts && n.preemptions >= options_.max_preemptions) continue;
      next = cand;
      break;
    }
    if (next >= 0) {
      n.chosen = next;
      return true;
    }
    nodes_.pop_back();
  }
  return false;
}

// --- scheduling points ----------------------------------------------------

int Scheduler::locate_locked(const void* addr, Location::Kind kind,
                             const char* name) {
  auto it = loc_ids_.find(addr);
  if (it != loc_ids_.end()) return it->second;
  const int id = static_cast<int>(locations_.size());
  loc_ids_.emplace(addr, id);
  Location loc;
  loc.kind = kind;
  loc.addr = addr;
  loc.name = name;
  locations_.push_back(loc);
  return id;
}

bool Scheduler::is_enabled_locked(const ThreadState& t) const {
  if (t.status != ThreadState::Status::kParked) return false;
  if (t.pending.kind == OpKind::kMutexLock) {
    return locations_[t.pending.loc].owner < 0;
  }
  if (t.pending.kind == OpKind::kJoin) {
    return threads_[t.join_target].status == ThreadState::Status::kFinished;
  }
  if (t.pending.kind == OpKind::kWait) return t.notified;
  return true;
}

void Scheduler::choose_next_locked(std::unique_lock<std::mutex>& lk) {
  std::vector<int> enabled;
  bool any_parked = false;
  for (int i = 0; i < thread_count_; ++i) {
    if (threads_[i].status == ThreadState::Status::kParked) {
      any_parked = true;
      if (is_enabled_locked(threads_[i])) enabled.push_back(i);
    }
  }
  if (!any_parked) return;  // execution is over (nothing to wake)
  if (enabled.empty()) {
    record_failure_locked("deadlock: no runnable thread");
    abort_execution_locked(lk);
  }

  // Prune: every enabled thread is asleep — this state's subtrees were
  // all covered from sibling branches already.
  bool all_asleep = true;
  for (int t : enabled) {
    if (!asleep_[t]) {
      all_asleep = false;
      break;
    }
  }
  if (all_asleep && options_.sleep_sets) {
    pruned_ = true;
    abort_execution_locked(lk);
  }

  const int last_runner = tls_thread_id;  // the thread now parking
  const bool last_enabled =
      std::find(enabled.begin(), enabled.end(), last_runner) != enabled.end() &&
      !asleep_[last_runner];

  int chosen = -1;
  if (enabled.size() == 1) {
    // Not a decision point (no node, no replay index): executions are
    // deterministic, so forced moves recur by themselves.
    chosen = enabled.front();
  } else if (branch_index_ < nodes_.size()) {
    // Replaying the DFS prefix.  Siblings already fully explored at
    // this node go to sleep: any schedule that wakes them without an
    // intervening dependent op was covered from their own branches.
    chosen = nodes_[branch_index_].chosen;
    if (options_.sleep_sets) {
      for (int t : nodes_[branch_index_].explored) asleep_[t] = true;
    }
    ++branch_index_;
  } else if (branch_index_ < replay_.size()) {
    // Forced replay of a counterexample seed.
    chosen = replay_[branch_index_];
    Node n;
    n.enabled = enabled;
    n.chosen = chosen;
    nodes_.push_back(n);
    ++branch_index_;
    if (std::find(enabled.begin(), enabled.end(), chosen) == enabled.end()) {
      record_failure_locked("replay seed chooses a disabled thread");
      abort_execution_locked(lk);
    }
  } else {
    // New frontier node.
    Node n;
    n.enabled = enabled;
    n.sleeping.resize(enabled.size());
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      n.sleeping[i] = options_.sleep_sets && asleep_[enabled[i]];
    }
    n.last_runner = last_runner;
    n.last_runner_enabled = last_enabled;
    n.preemptions = nodes_.empty() ? 0 : nodes_.back().preemptions;
    if (!nodes_.empty() && nodes_.back().chosen != nodes_.back().last_runner &&
        nodes_.back().last_runner_enabled) {
      // The previous branch's choice was a preemption.
      n.preemptions = nodes_.back().preemptions + 1;
    }
    // Policy: keep running the same thread when allowed (minimum
    // preemptions explored first), otherwise the lowest awake id.
    chosen = -1;
    if (last_enabled && !asleep_[last_runner]) {
      chosen = last_runner;
    } else {
      for (std::size_t i = 0; i < enabled.size(); ++i) {
        if (!n.sleeping[i]) {
          chosen = enabled[i];
          break;
        }
      }
    }
    if (chosen < 0) {
      pruned_ = true;  // everything enabled is asleep
      abort_execution_locked(lk);
    }
    n.chosen = chosen;
    nodes_.push_back(n);
    ++branch_index_;
  }

  ThreadState& next = threads_[chosen];
  next.has_token = true;
  cv_.notify_all();
}

void Scheduler::park_and_wait(std::unique_lock<std::mutex>& lk,
                              ThreadState& me) {
  me.status = ThreadState::Status::kParked;
  choose_next_locked(lk);
  cv_.wait(lk, [&] { return me.has_token || abort_; });
  if (abort_) throw ScheduleAborted{};
  me.has_token = false;
  me.status = ThreadState::Status::kRunning;
}

void Scheduler::commit_locked(ThreadState& me) {
  ++steps_;
  if (steps_ > options_.max_steps) {
    record_failure_locked("step cap exceeded (livelock in the harness?)");
    abort_ = true;
    cv_.notify_all();
    throw ScheduleAborted{};
  }
  me.clock.c[me.id] += 1;
  TraceEvent ev;
  ev.step = static_cast<int>(steps_);
  ev.tid = me.id;
  ev.kind = me.pending.kind;
  ev.loc = me.pending.loc;
  ev.order = me.pending_order;
  trace_.push_back(ev);
  filter_sleep_locked(me.pending);
}

void Scheduler::filter_sleep_locked(const OpSig& committed) {
  if (!options_.sleep_sets) return;
  asleep_[tls_thread_id] = false;
  for (int i = 0; i < thread_count_; ++i) {
    if (!asleep_[i]) continue;
    if (threads_[i].status != ThreadState::Status::kParked) {
      asleep_[i] = false;
      continue;
    }
    if (dependent(threads_[i].pending, committed)) asleep_[i] = false;
  }
}

int Scheduler::schedule_op(OpKind kind, const void* addr, const char* name,
                           int order) {
  std::unique_lock<std::mutex> lk(mu_);
  if (abort_) throw ScheduleAborted{};
  ThreadState& me = threads_[tls_thread_id];
  Location::Kind lkind = Location::Kind::kAtomic;
  if (kind == OpKind::kCellRead || kind == OpKind::kCellWrite) {
    lkind = Location::Kind::kCell;
  } else if (kind == OpKind::kMutexLock || kind == OpKind::kMutexUnlock ||
             kind == OpKind::kMutexTryLock) {
    lkind = Location::Kind::kMutex;
  } else if (kind == OpKind::kFence) {
    lkind = Location::Kind::kFence;
  }
  const int loc = addr ? locate_locked(addr, lkind, name) : -1;
  me.pending = OpSig{kind, loc};
  me.pending_order = order;
  me.pending_name = name;

  // Fast path: alone (or everyone else finished) — run without parking.
  bool others = false;
  for (int i = 0; i < thread_count_; ++i) {
    if (i != tls_thread_id &&
        threads_[i].status != ThreadState::Status::kUnused &&
        threads_[i].status != ThreadState::Status::kFinished) {
      others = true;
      break;
    }
  }
  if (others) {
    park_and_wait(lk, me);
  } else if (kind == OpKind::kWait && !me.notified) {
    record_failure_locked("deadlock: no thread left to notify a waiter");
    abort_execution_locked(lk);
  }
  // Mutex-lock grants are only issued while the mutex is free, but a
  // replay seed may violate that; re-check to fail cleanly.
  if (kind == OpKind::kMutexLock && locations_[loc].owner >= 0) {
    record_failure_locked("granted a lock on a held mutex (bad replay seed?)");
    abort_execution_locked(lk);
  }
  commit_locked(me);
  return loc;
}

// --- commit hooks (token held: the thread runs alone) ---------------------

void Scheduler::on_atomic_load(int loc, int order, std::uint64_t value) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  if (order_acquires(order)) me.clock.join(locations_[loc].sync);
  trace_.back().value = value;
  trace_.back().has_value = true;
  trace_.back().kind = OpKind::kLoad;  // failed CAS commits as a load
  trace_.back().order = order;
}

void Scheduler::on_atomic_store(int loc, int order, std::uint64_t value) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  if (order_releases(order)) {
    // A release store heads a fresh release sequence.
    l.sync = me.clock;
  } else {
    // A relaxed store breaks the location's release history for later
    // readers — exactly the bug class the ring harnesses seed.
    l.sync.clear();
  }
  trace_.back().value = value;
  trace_.back().has_value = true;
}

void Scheduler::on_atomic_rmw(int loc, int order, std::uint64_t value) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  if (order_acquires(order)) me.clock.join(l.sync);
  if (order_releases(order)) {
    l.sync.join(me.clock);  // RMW extends the release sequence
  }
  // A relaxed RMW leaves the release history intact (RMWs continue the
  // sequence in the C++ model).
  trace_.back().value = value;
  trace_.back().has_value = true;
}

void Scheduler::on_fence(int order) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  // Conservative: a release fence publishes to, and an acquire fence
  // joins, one global clock.  Over-synchronizes (can hide a fence
  // misuse), never invents a race.
  if (order_releases(order)) fence_sync_.join(me.clock);
  if (order_acquires(order)) me.clock.join(fence_sync_);
}

void Scheduler::on_cell_read(int loc) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  if (l.writer >= 0 && l.writer != me.id &&
      l.writer_clock > me.clock.c[l.writer]) {
    record_failure_locked("data race: T" + std::to_string(me.id) +
                          " reads a cell whose last write (T" +
                          std::to_string(l.writer) +
                          ") is not ordered before it");
    abort_execution_locked(lk);
  }
  l.readers[me.id] = me.clock.c[me.id];
}

void Scheduler::on_cell_write(int loc) {
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  if (l.writer >= 0 && l.writer != me.id &&
      l.writer_clock > me.clock.c[l.writer]) {
    record_failure_locked("data race: T" + std::to_string(me.id) +
                          " overwrites a cell whose last write (T" +
                          std::to_string(l.writer) +
                          ") is not ordered before it");
    abort_execution_locked(lk);
  }
  for (int i = 0; i < kMaxThreads; ++i) {
    if (i != me.id && l.readers[i] > me.clock.c[i]) {
      record_failure_locked("data race: T" + std::to_string(me.id) +
                            " overwrites a cell T" + std::to_string(i) +
                            " read without ordering");
      abort_execution_locked(lk);
    }
  }
  l.writer = me.id;
  l.writer_clock = me.clock.c[me.id];
  l.readers.fill(0);
}

// --- mutexes --------------------------------------------------------------

void Scheduler::mutex_lock(const void* addr, const char* name) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadState& me = threads_[tls_thread_id];
    const int loc = locate_locked(addr, Location::Kind::kMutex, name);
    if (locations_[loc].owner == me.id) {
      record_failure_locked("recursive lock of a non-recursive mutex");
      abort_execution_locked(lk);
    }
  }
  const int loc = schedule_op(OpKind::kMutexLock, addr, name, 0);
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  l.owner = me.id;
  me.clock.join(l.sync);
}

void Scheduler::mutex_unlock(const void* addr, const char* name) {
  const int loc = schedule_op(OpKind::kMutexUnlock, addr, name, 0);
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  if (l.owner != me.id) {
    record_failure_locked("unlock of a mutex the thread does not hold");
    abort_execution_locked(lk);
  }
  l.owner = -1;
  l.sync.join(me.clock);
  // Unblocking a lock-waiter changes the enabled set; wake the world so
  // parked choosers re-evaluate.
  cv_.notify_all();
}

bool Scheduler::mutex_try_lock(const void* addr, const char* name) {
  const int loc = schedule_op(OpKind::kMutexTryLock, addr, name, 0);
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  Location& l = locations_[loc];
  if (l.owner >= 0) return false;
  l.owner = me.id;
  me.clock.join(l.sync);
  return true;
}

// --- atomic wait/notify ----------------------------------------------------

void Scheduler::wait_park(const void* addr) {
  // Disabled until a notify sets `notified` (is_enabled_locked), so the
  // scheduler runs the other threads meanwhile, or reports a deadlock.
  schedule_op(OpKind::kWait, addr, nullptr, 0);
  std::unique_lock<std::mutex> lk(mu_);
  threads_[tls_thread_id].notified = false;
}

void Scheduler::notify(const void* addr, bool all) {
  const int loc = schedule_op(OpKind::kNotify, addr, nullptr, 0);
  std::unique_lock<std::mutex> lk(mu_);
  for (int i = 0; i < thread_count_; ++i) {
    ThreadState& t = threads_[i];
    if (t.status == ThreadState::Status::kParked &&
        t.pending.kind == OpKind::kWait && t.pending.loc == loc &&
        !t.notified) {
      t.notified = true;
      if (!all) break;
    }
  }
}

void Scheduler::name_location(const void* addr, const char* name) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = loc_ids_.find(addr);
  if (it != loc_ids_.end()) {
    locations_[it->second].name = name;
  } else {
    // Register eagerly so the name is there when the op arrives.
    const int id = locate_locked(addr, Location::Kind::kAtomic, name);
    locations_[id].name = name;
  }
}

// --- threads --------------------------------------------------------------

int Scheduler::spawn_thread(std::function<void()> fn) {
  schedule_op(OpKind::kSpawn, nullptr, "spawn", 0);
  std::unique_lock<std::mutex> lk(mu_);
  if (thread_count_ >= kMaxThreads) {
    record_failure_locked("too many model threads (kMaxThreads)");
    abort_execution_locked(lk);
  }
  const int id = thread_count_++;
  ThreadState& child = threads_[id];
  ThreadState& me = threads_[tls_thread_id];
  child.id = id;
  child.fn = std::move(fn);
  child.clock = me.clock;  // spawn edge: child starts after the parent
  child.status = ThreadState::Status::kRunning;  // becomes kParked below
  if (child.handle.joinable()) child.handle.join();  // recycle the slot
  child.handle = std::thread([this, id] { trampoline(id); });
  // Hold the token until the child is parked at its start point, so the
  // enabled set at the next decision is deterministic.
  cv_.wait(lk, [&] {
    return child.status == ThreadState::Status::kParked || abort_;
  });
  if (abort_) throw ScheduleAborted{};
  return id;
}

void Scheduler::trampoline(int id) {
  tls_scheduler = this;
  tls_thread_id = id;
  ThreadState& me = threads_[id];
  try {
    {
      // Park at the start point; the spawning parent is waiting for
      // this transition and keeps the token.
      std::unique_lock<std::mutex> lk(mu_);
      me.pending = OpSig{OpKind::kSpawn, -1};
      me.pending_name = "start";
      me.status = ThreadState::Status::kParked;
      cv_.notify_all();
      cv_.wait(lk, [&] { return me.has_token || abort_; });
      if (abort_) throw ScheduleAborted{};
      me.has_token = false;
      me.status = ThreadState::Status::kRunning;
      commit_locked(me);
    }
    me.fn();
    std::unique_lock<std::mutex> lk(mu_);
    me.status = ThreadState::Status::kFinished;
    // Finishing may unblock a join-waiter; hand the token on.  This can
    // itself abort (deadlock / sleep-set prune), so it must stay inside
    // the try: a ScheduleAborted escaping a thread entry is terminate().
    choose_next_locked(lk);
  } catch (const ScheduleAborted&) {
    std::unique_lock<std::mutex> lk(mu_);
    me.status = ThreadState::Status::kFinished;
  }
}

void Scheduler::join_thread(int id) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    threads_[tls_thread_id].join_target = id;
  }
  schedule_op(OpKind::kJoin, nullptr, "join", 0);
  std::unique_lock<std::mutex> lk(mu_);
  ThreadState& me = threads_[tls_thread_id];
  me.clock.join(threads_[id].clock);  // join edge
  me.join_target = -1;
}

// --- failures -------------------------------------------------------------

void Scheduler::record_failure_locked(const std::string& message) {
  if (failed_) return;
  failed_ = true;
  failure_ = render_failure_locked(message);
}

void Scheduler::abort_execution_locked(std::unique_lock<std::mutex>& lk) {
  abort_ = true;
  cv_.notify_all();
  (void)lk;
  throw ScheduleAborted{};
}

void Scheduler::fail_here(const char* file, int line, const char* message) {
  std::unique_lock<std::mutex> lk(mu_);
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  record_failure_locked("MDN_CHECK failed: " + std::string(message) + " (" +
                        base + ":" + std::to_string(line) + ")");
  abort_execution_locked(lk);
}

std::string Scheduler::decisions_string_locked() const {
  std::string out;
  for (const Node& n : nodes_) {
    if (!out.empty()) out += ",";
    out += std::to_string(n.chosen);
  }
  return out;
}

std::string Scheduler::render_failure_locked(const std::string& message) const {
  const char* kind_names[] = {"load",    "store", "rmw",  "fence",
                              "read",    "write", "lock", "unlock",
                              "trylock", "spawn", "join", "wait",
                              "notify"};
  constexpr int kCol = 30;
  std::string out = "model-check counterexample\n";
  out += "  failure: " + message + "\n";
  out += "  replay seed: \"" + decisions_string_locked() +
         "\" (set check::Options::replay)\n";
  out += "  timeline (" + std::to_string(thread_count_) + " threads):\n";
  std::string header = "    step  ";
  for (int t = 0; t < thread_count_; ++t) {
    std::string col = "T" + std::to_string(t);
    col.resize(kCol, ' ');
    header += col;
  }
  out += header + "\n";
  for (const TraceEvent& ev : trace_) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "    %4d  ", ev.step);
    std::string line = buf;
    for (int t = 0; t < thread_count_; ++t) {
      std::string col;
      if (t == ev.tid) {
        if (ev.loc >= 0) {
          const Location& l = locations_[ev.loc];
          if (l.name != nullptr) {
            col = l.name;
          } else {
            const char* prefix =
                l.kind == Location::Kind::kCell
                    ? "cell#"
                    : (l.kind == Location::Kind::kMutex ? "mutex#" : "atomic#");
            col = prefix + std::to_string(ev.loc);
          }
          col += ".";
        }
        col += kind_names[static_cast<int>(ev.kind)];
        if (ev.kind == OpKind::kLoad || ev.kind == OpKind::kStore ||
            ev.kind == OpKind::kRmw || ev.kind == OpKind::kFence) {
          col += std::string("(") + order_name(ev.order) + ")";
        }
        if (ev.has_value) {
          std::snprintf(buf, sizeof buf, "=%llu",
                        static_cast<unsigned long long>(ev.value));
          col += buf;
        }
      }
      if (col.size() > kCol - 2) col.resize(kCol - 2);
      col.resize(kCol, ' ');
      line += col;
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    out += line + "\n";
  }
  return out;
}

}  // namespace

// --- public API (model-check build) ---------------------------------------

Result explore(const Options& options, const std::function<void()>& body) {
  Scheduler scheduler;
  return scheduler.run(options, body);
}

bool active() noexcept { return tls_scheduler != nullptr; }

void fail(const char* file, int line, const char* message) {
  if (tls_scheduler != nullptr) {
    tls_scheduler->fail_here(file, line, message);
  }
  std::fprintf(stderr, "MDN_CHECK failed outside explore(): %s (%s:%d)\n",
               message, file, line);
  std::abort();
}

thread::thread(std::function<void()> fn) {
  if (tls_scheduler != nullptr) {
    model_id_ = tls_scheduler->spawn_thread(std::move(fn));
  } else {
    impl_ = std::thread(std::move(fn));
  }
}

thread::~thread() {
  if (!joined_ && impl_.joinable()) impl_.join();
}

void thread::join() {
  if (joined_) return;
  joined_ = true;
  if (model_id_ >= 0) {
    // A join reached while unwinding a torn-down schedule (an owner's
    // destructor) is skipped like every other scheduling point; the
    // scheduler reaps the thread when the execution ends.
    if (tls_scheduler != nullptr && std::uncaught_exceptions() == 0) {
      tls_scheduler->join_thread(model_id_);
    }
    return;
  }
  if (impl_.joinable()) impl_.join();
}

namespace detail {

bool active_here() noexcept { return tls_scheduler != nullptr; }

// Once a ScheduleAborted is in flight, destructors running during the
// unwind (MutexLock, ring buffers holding shim state) still reach
// these entry points.  Scheduling — or throwing again — from inside a
// noexcept destructor frame would terminate the process, and the
// schedule is already dead, so unwinding threads skip instrumentation
// entirely: ops execute raw, hooks become no-ops (loc = -1).
namespace {
bool unwinding() noexcept { return std::uncaught_exceptions() > 0; }
}  // namespace

int schedule_op(OpKind kind, const void* addr, const char* name, int order) {
  if (unwinding()) return -1;
  return tls_scheduler->schedule_op(kind, addr, name, order);
}

void on_atomic_load(int loc, int order, std::uint64_t value) {
  if (loc < 0) return;
  tls_scheduler->on_atomic_load(loc, order, value);
}
void on_atomic_store(int loc, int order, std::uint64_t value) {
  if (loc < 0) return;
  tls_scheduler->on_atomic_store(loc, order, value);
}
void on_atomic_rmw(int loc, int order, std::uint64_t value) {
  if (loc < 0) return;
  tls_scheduler->on_atomic_rmw(loc, order, value);
}
void on_fence(int order) {
  if (unwinding()) return;
  tls_scheduler->on_fence(order);
}
void on_cell_read(int loc) {
  if (loc < 0) return;
  tls_scheduler->on_cell_read(loc);
}
void on_cell_write(int loc) {
  if (loc < 0) return;
  tls_scheduler->on_cell_write(loc);
}

void mutex_lock(const void* addr, const char* name) {
  if (unwinding()) return;
  tls_scheduler->mutex_lock(addr, name);
}
void mutex_unlock(const void* addr, const char* name) {
  if (unwinding()) return;
  tls_scheduler->mutex_unlock(addr, name);
}
bool mutex_try_lock(const void* addr, const char* name) {
  if (unwinding()) return false;
  return tls_scheduler->mutex_try_lock(addr, name);
}
bool wait_park(const void* addr) {
  if (unwinding()) return false;
  tls_scheduler->wait_park(addr);
  return true;
}
void notify(const void* addr, bool all) {
  if (unwinding()) return;
  tls_scheduler->notify(addr, all);
}
void name_location(const void* addr, const char* name) {
  if (tls_scheduler != nullptr) tls_scheduler->name_location(addr, name);
}

}  // namespace detail

}  // namespace mdn::check

#else  // !MDN_MODEL_CHECK ------------------------------------------------

namespace mdn::check {

// Pass-through: one plain execution, real threads, assertion-style
// failure.  The shim (common/atomic.h) is std::atomic in this mode, so
// nothing below is on any hot path.

Result explore(const Options& options, const std::function<void()>& body) {
  (void)options;
  body();
  Result result;
  result.schedules = 1;
  result.complete = false;  // one schedule is not an exploration
  result.ok = true;
  return result;
}

bool active() noexcept { return false; }

void fail(const char* file, int line, const char* message) {
  std::fprintf(stderr, "MDN_CHECK failed: %s (%s:%d)\n", message, file, line);
  std::abort();
}

thread::thread(std::function<void()> fn) : impl_(std::move(fn)) {}

thread::~thread() {
  if (!joined_ && impl_.joinable()) impl_.join();
}

void thread::join() {
  if (joined_) return;
  joined_ = true;
  if (impl_.joinable()) impl_.join();
}

}  // namespace mdn::check

#endif  // MDN_MODEL_CHECK
