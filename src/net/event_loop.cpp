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

void EventLoop::push_event(Event ev) {
  heap_.push_back(std::move(ev));
  // Sift up.
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_[i].before(heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

EventLoop::Event EventLoop::pop_event() {
  Event top = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  // Sift down.
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t least = i;
    if (l < n && heap_[l].before(heap_[least])) least = l;
    if (r < n && heap_[r].before(heap_[least])) least = r;
    if (least == i) break;
    std::swap(heap_[i], heap_[least]);
    i = least;
  }
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
  if (heap_.size() > 1) {
    // Floyd heapify: sift down every internal node, deepest first.
    const std::size_t n = heap_.size();
    for (std::size_t root = n / 2; root-- > 0;) {
      std::size_t i = root;
      while (true) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = l + 1;
        std::size_t least = i;
        if (l < n && heap_[l].before(heap_[least])) least = l;
        if (r < n && heap_[r].before(heap_[least])) least = r;
        if (least == i) break;
        std::swap(heap_[i], heap_[least]);
        i = least;
      }
    }
  }
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
