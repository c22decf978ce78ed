// Deterministic discrete-event scheduler.
//
// All network activity — packet transmissions, queue sampling, Music
// Protocol emissions, controller reactions — is driven by this loop.
// Events at equal timestamps run in scheduling order (FIFO), which keeps
// every experiment bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/sim_time.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdn::net {

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  using Callback = std::function<void()>;
  using EventId = std::uint64_t;

  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now).  Events scheduled in
  /// the past run at the current time.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` nanoseconds.
  EventId schedule_in(SimTime delay, Callback cb);

  /// Schedules `cb` every `period`, starting at now + `first_delay`.
  /// The callback returns false to stop the series.
  void schedule_periodic(SimTime first_delay, SimTime period,
                         std::function<bool()> cb);

  /// Cancels a pending event (no-op if it already ran).
  void cancel(EventId id);

  /// Runs until the event queue is empty.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const noexcept { return live_; }

  /// Heap entries currently held, live plus cancelled tombstones.  The
  /// loop compacts when tombstones outnumber live events (see cancel()),
  /// so this stays within 2x pending() — tests assert that bound after
  /// heavy schedule/cancel churn.
  std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Events dispatched since construction of the loop's process-wide
  /// counters (aggregated across loops under "net/loop/*").
  std::uint64_t dispatched() const noexcept { return dispatched_count_; }

  /// The loop's sim-time tracer.  Disabled by default; enabling it only
  /// records — it never schedules — so event ordering is unchanged.
  obs::Tracer& tracer() noexcept { return tracer_; }
  const obs::Tracer& tracer() const noexcept { return tracer_; }

 private:
  // Heap node with the callback stored inline: scheduling a batch-scale
  // workload (TrafficGen fires one event per batch window, fleets
  // schedule tens of thousands of ticks) costs one heap sift per event —
  // no per-event node allocation or hash lookups, which dominated the
  // old priority_queue + unordered_map layout at fleet scale.
  struct Event {
    SimTime time;
    EventId id;  // also the FIFO tie-breaker
    Callback cb; // null = cancelled tombstone, skipped when popped
    // Min-heap order on (time, id).
    bool before(const Event& o) const noexcept {
      return time != o.time ? time < o.time : id < o.id;
    }
  };

  void push_event(Event ev);
  Event pop_event();  // precondition: !heap_.empty()
  // Drops cancelled tombstones off the top so heap_.front() is live.
  void drop_dead_heads();
  // Erases every tombstone and rebuilds the heap in place (make_heap,
  // O(live)).  Called by cancel() when tombstones exceed half the heap
  // so schedule/cancel churn cannot grow the heap without bound.
  void compact();

  // Pops and runs the next live event; returns false when drained.
  bool step();

  SimTime now_ = 0;
  EventId next_id_ = 1;
  std::vector<Event> heap_;   // binary min-heap on (time, id)
  std::size_t live_ = 0;      // heap entries with a non-null callback

  std::uint64_t dispatched_count_ = 0;
  // Process-wide instruments, resolved once at construction.
  obs::Counter* events_dispatched_;
  obs::Gauge* queue_depth_;
  obs::Tracer tracer_;
  // Each callback: "net/loop/callback_wall_ns" plus an "event" span.
  obs::Stage callback_;
};

}  // namespace mdn::net
