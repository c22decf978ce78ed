#include "net/event_loop.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace mdn::net {

EventLoop::EventLoop()
    : events_dispatched_(
          &obs::Registry::global().counter("net/loop/events_dispatched")),
      queue_depth_(&obs::Registry::global().gauge("net/loop/queue_depth")),
      callback_(
          &obs::Registry::global().histogram("net/loop/callback_wall_ns"),
          &tracer_, "event", tracer_.track("net/loop")) {}

namespace {

// std:: heap algorithms build a max-heap; reversing Event::before puts
// the earliest (time, id) on top.  Keys are unique, so the order is
// total and dispatch order is fully determined.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const noexcept {
    return b.before(a);
  }
};

}  // namespace

void EventLoop::push_event(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventLoop::Event EventLoop::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event top = std::move(heap_.back());
  heap_.pop_back();
  return top;
}

void EventLoop::drop_dead_heads() {
  while (!heap_.empty() && !heap_.front().cb) pop_event();
}

EventLoop::EventId EventLoop::schedule_at(SimTime t, Callback cb) {
  const EventId id = next_id_++;
  push_event(Event{std::max(t, now_), id, std::move(cb)});
  ++live_;
  return id;
}

EventLoop::EventId EventLoop::schedule_in(SimTime delay, Callback cb) {
  return schedule_at(now_ + std::max<SimTime>(0, delay), std::move(cb));
}

namespace {

// One firing of a periodic series.  While the callback returns true the
// firing schedules a copy of itself.  Only pending and running copies
// own the callback (shared, not copied per period), so it is freed once
// the series stops.
struct PeriodicFiring {
  EventLoop* loop;
  std::shared_ptr<std::function<bool()>> cb;
  SimTime period;

  void operator()() const {
    if ((*cb)()) loop->schedule_in(period, *this);
  }
};

}  // namespace

void EventLoop::schedule_periodic(SimTime first_delay, SimTime period,
                                  std::function<bool()> cb) {
  schedule_in(first_delay,
              PeriodicFiring{
                  this, std::make_shared<std::function<bool()>>(std::move(cb)),
                  period});
}

void EventLoop::cancel(EventId id) {
  // Cancellation is cold (tests and teardown); a linear scan for the
  // tombstone keeps the hot schedule/dispatch path free of any per-event
  // id index.  No-op if the event already ran or was already cancelled.
  for (Event& ev : heap_) {
    if (ev.id == id) {
      if (ev.cb) {
        ev.cb = nullptr;
        --live_;
        // Tombstones are only reclaimed lazily when popped, so a
        // schedule/cancel churn loop would otherwise grow the heap
        // without bound.  Compacting at >50% dead keeps the heap within
        // 2x live while amortizing the rebuild to O(1) per cancel.
        if (heap_.size() - live_ > heap_.size() / 2) compact();
      }
      return;
    }
  }
}

void EventLoop::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [](const Event& ev) { return !ev.cb; }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  heap_.shrink_to_fit();
}

bool EventLoop::step() {
  while (!heap_.empty()) {
    Event ev = pop_event();
    if (!ev.cb) continue;  // cancelled
    --live_;
    now_ = ev.time;
    {
      const auto timed = callback_.scope(now_);
      ev.cb();
    }
    ++dispatched_count_;
    events_dispatched_->inc();
    queue_depth_->set(static_cast<std::int64_t>(live_));
    return true;
  }
  return false;
}

void EventLoop::run() {
  while (step()) {
  }
}

void EventLoop::run_until(SimTime t) {
  while (true) {
    drop_dead_heads();
    if (heap_.empty() || heap_.front().time > t) break;
    step();
  }
  now_ = std::max(now_, t);
}

}  // namespace mdn::net
