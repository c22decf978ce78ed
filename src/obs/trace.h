// Sim-time tracing: spans and instant events stamped with BOTH the
// simulated clock (net::SimTime nanoseconds, passed in by the caller)
// and the wall clock, so a whole experiment replays as a timeline in
// chrome://tracing / Perfetto (see obs::to_chrome_trace).
//
// A Tracer is owned by the recording context — each net::EventLoop has
// one — and is disabled by default: when off, recording is a single
// branch, so tracing-capable code costs nothing in production runs and
// cannot perturb event ordering either way (it only ever observes).
//
// obs::Stage times a pipeline stage: one clock pair per scope feeds both
// its registry histogram and, while tracing, its span.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace mdn::obs {

struct TraceEvent {
  std::string name;
  char phase = 'i';              ///< 'X' complete span, 'i' instant
  std::uint32_t track = 0;       ///< index into Tracer::track_names()
  std::int64_t sim_ns = 0;       ///< simulated timestamp
  std::int64_t wall_ns = 0;      ///< wall-clock stamp when recorded
  std::int64_t wall_dur_ns = 0;  ///< span wall duration ('X' only)
};

class Tracer {
 public:
  using WallClock = std::int64_t (*)();

  void enable(bool on = true) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Registers (or finds) a named track — one horizontal lane in the
  /// trace viewer, e.g. "net/loop" or "mdn/controller".
  std::uint32_t track(std::string_view name);

  /// Records an instant event at simulated time `sim_ns`.  No-op while
  /// disabled.
  void instant(std::string_view name, std::uint32_t track,
               std::int64_t sim_ns);

  /// Records a completed span that started at simulated time `sim_ns`
  /// and wall time `wall_start_ns`, lasting `wall_dur_ns` of wall time.
  /// (Spans are instantaneous in simulated time — the sim clock does not
  /// advance inside a callback — so the wall duration is the payload.)
  void complete(std::string_view name, std::uint32_t track,
                std::int64_t sim_ns, std::int64_t wall_start_ns,
                std::int64_t wall_dur_ns);

  std::int64_t wall_now() const { return clock_(); }
  /// Tests inject a deterministic clock to make traces golden-testable.
  /// Stage::span() is the exception: its span keeps the Reading's
  /// wall_now_ns() times, taken where this clock may not be called.
  void set_wall_clock(WallClock clock) noexcept { clock_ = clock; }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  const std::vector<std::string>& track_names() const noexcept {
    return tracks_;
  }

  void clear() noexcept { events_.clear(); }

 private:
  bool enabled_ = false;
  WallClock clock_ = &wall_now_ns;
  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
};

/// One timed pipeline stage: the registry histogram its wall time feeds
/// (null: none) and the span it records on `tracer` (null: none) under
/// `name` on `track`; `name` must outlive the stage.  Each scope reads one
/// clock pair and records one histogram sample.  scope() reads the
/// tracer's clock while it is enabled, wall_now_ns() otherwise and none
/// when there is nothing to feed, and while tracing also records one span
/// from the same reading.  Spans allocate, so MDN_REALTIME code uses
/// realtime_scope(): histogram only, on wall_now_ns(), so the realtime
/// lint proves no audio path reaches the span store.  A thread that must
/// not touch the tracer (a fork-join worker) passes realtime_scope() a
/// Reading, and the tracer's thread writes it later with span().
class Stage {
 public:
  /// One scope's wall start and duration, on wall_now_ns().
  struct Reading {
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  Stage() = default;
  explicit Stage(Histogram* hist, Tracer* tracer = nullptr,
                 std::string_view name = {}, std::uint32_t track = 0) noexcept
      : hist_(hist), tracer_(tracer), name_(name), track_(track) {}

  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (hist_ == nullptr && tracer_ == nullptr) return;
      const std::int64_t elapsed = now() - start_;
      if (hist_ != nullptr) hist_->record(static_cast<double>(elapsed));
      if (tracer_ != nullptr) {
        tracer_->complete(name_, track_, sim_ns_, start_, elapsed);
      }
    }

   private:
    friend class Stage;
    Scope(const Stage& s, std::int64_t sim_ns) noexcept
        : hist_(s.hist_),
          tracer_(s.tracer_ != nullptr && s.tracer_->enabled() ? s.tracer_
                                                               : nullptr),
          name_(s.name_),
          track_(s.track_),
          sim_ns_(sim_ns),
          start_(hist_ != nullptr || tracer_ != nullptr ? now() : 0) {}
    std::int64_t now() const {
      return tracer_ != nullptr ? tracer_->wall_now() : wall_now_ns();
    }

    Histogram* hist_;
    Tracer* tracer_;  ///< null unless enabled at entry
    std::string_view name_;
    std::uint32_t track_;
    std::int64_t sim_ns_;
    std::int64_t start_;
  };

  class RealtimeScope {
   public:
    RealtimeScope(const RealtimeScope&) = delete;
    RealtimeScope& operator=(const RealtimeScope&) = delete;
    ~RealtimeScope() {
      if (hist_ == nullptr && out_ == nullptr) return;
      const std::int64_t elapsed = wall_now_ns() - start_;
      if (hist_ != nullptr) hist_->record(static_cast<double>(elapsed));
      if (out_ != nullptr) *out_ = {start_, elapsed};
    }

   private:
    friend class Stage;
    RealtimeScope(Histogram* hist, Reading* out) noexcept
        : hist_(hist),
          out_(out),
          start_(hist != nullptr || out != nullptr ? wall_now_ns() : 0) {}

    Histogram* hist_;
    Reading* out_;  ///< null: no reading kept
    std::int64_t start_;
  };

  [[nodiscard]] Scope scope(std::int64_t sim_ns = 0) const noexcept {
    return Scope(*this, sim_ns);
  }
  /// Histogram only; a non-null `out` also keeps the reading for span().
  [[nodiscard]] RealtimeScope realtime_scope(
      Reading* out = nullptr) const noexcept {
    return RealtimeScope(hist_, out);
  }

  /// Records `reading` as this stage's span at `sim_ns` while the tracer
  /// is enabled, on the reading's wall_now_ns() times even when the
  /// tracer has an injected clock.  Call it on the tracer's thread.
  void span(std::int64_t sim_ns, const Reading& reading) const {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->complete(name_, track_, sim_ns, reading.start_ns,
                        reading.dur_ns);
    }
  }

  std::uint32_t track() const noexcept { return track_; }

 private:
  Histogram* hist_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::string_view name_;
  std::uint32_t track_ = 0;
};

}  // namespace mdn::obs
