// Metrics registry: counters, gauges and log-bucketed histograms.
//
// Every layer of the stack registers instruments here by hierarchical
// name ("mdn/controller/blocks", "net/switch/s1/port0/queue_depth",
// "dsp/fft/wall_ns") and bumps them on its hot path.  The design rule is
// lock-free-on-hot-path: registration takes a mutex once, but add() /
// set() / record() are relaxed atomics, so instrumenting a path costs a
// few nanoseconds and never blocks — and, critically for the simulator,
// never perturbs event ordering.  Exporters (obs/export.h) turn a
// Snapshot into Prometheus text, JSONL or plain JSON.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace mdn::obs {

namespace detail {

inline void atomic_add(std::atomic<double>& a, double d) noexcept {
  // mo: lock-free accumulate; the CAS retry loop only needs atomicity
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& a, double v) noexcept {
  // mo: lock-free accumulate; the CAS retry loop only needs atomicity
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& a, double v) noexcept {
  // mo: lock-free accumulate; the CAS retry loop only needs atomicity
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) noexcept {
  // mo: lock-free accumulate; the CAS retry loop only needs atomicity
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    // mo: monitoring counter, no ordering needed with other state
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    // mo: monitoring counter, no ordering needed with other state
    return value_.load(std::memory_order_relaxed);
  }
  // mo: test/bench reset; callers quiesce writers first
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, pending events).  Remembers the
/// largest value ever set so exports double as high-watermarks.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    // mo: monitoring gauge, staleness tolerated by every reader (gauge publish)
    value_.store(v, std::memory_order_relaxed);
    detail::atomic_max(max_, v);
  }
  void add(std::int64_t d) noexcept {
    // mo: monitoring counter, no ordering needed with other state
    const std::int64_t v = value_.fetch_add(d, std::memory_order_relaxed) + d;
    detail::atomic_max(max_, v);
  }
  std::int64_t value() const noexcept {
    // mo: monitoring gauge, staleness tolerated by every reader
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max_seen() const noexcept {
    // mo: monitoring gauge, staleness tolerated by every reader
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    // mo: test/bench reset; callers quiesce writers first
    value_.store(0, std::memory_order_relaxed);
    // mo: test/bench reset; callers quiesce writers first
    max_.store(std::numeric_limits<std::int64_t>::min(),
               std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
};

/// Geometric bucket layout.  The defaults cover wall-clock nanoseconds
/// from 32 ns to ~100 s at 2^(1/8) resolution (<= ~9% relative error per
/// bucket, tightened further by in-bucket interpolation).
struct HistogramOptions {
  double first_bound = 32.0;                ///< upper bound of bucket 0
  double growth = 1.0905077326652577;       ///< 2^(1/8)
  std::size_t buckets = 256;                ///< last bucket is overflow
};

/// Read-only copy of a histogram with quantile/CDF extraction — the same
/// role dsp::Ecdf plays for exact sample sets, approximated by geometric
/// buckets so the live histogram costs O(1) per record.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> bounds;           ///< upper bound per bucket
  std::vector<std::uint64_t> buckets;   ///< parallel counts

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Smallest value v with cdf(v) >= q, by linear interpolation inside
  /// the target bucket.  Edge cases are bounds, not NaN: an empty
  /// histogram returns 0, q <= 0 returns the exact `min`, q >= 1 the
  /// exact `max` (both tracked per sample, so they are not bucket
  /// approximations), and out-of-range q clamps to [0, 1].  The single
  /// exception is q = NaN, which propagates NaN (no quantile is a less
  /// wrong answer than another).  Results are always within [min, max].
  double quantile(double q) const;
  /// Fraction of recorded values <= x.
  double cdf(double x) const;
  /// (x, F(x)) pairs at `points` evenly spaced quantiles, like
  /// dsp::Ecdf::curve — ready to print as a CDF.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;
};

class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options = {});

  void record(double value) noexcept;
  std::uint64_t count() const noexcept {
    // mo: monitoring gauge, staleness tolerated by every reader
    return count_.load(std::memory_order_relaxed);
  }
  // mo: monitoring gauge, staleness tolerated by every reader
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;
  /// Convenience: snapshot().quantile(q).
  double quantile(double q) const { return snapshot().quantile(q); }
  void reset() noexcept;

 private:
  std::size_t bucket_index(double value) const noexcept;

  HistogramOptions options_;
  double inv_log_growth_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

enum class Kind { kCounter, kGauge, kHistogram };

struct MetricSnapshot {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  std::int64_t gauge_max = 0;
  HistogramSnapshot hist;
};

/// Sorted by name (registration order is irrelevant).
using Snapshot = std::vector<MetricSnapshot>;

/// Owner of all instruments.  Lookup-or-create is mutex-guarded and
/// returns references that stay valid for the registry's lifetime, so
/// hot paths resolve their instruments once (usually at construction)
/// and then touch only atomics.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every subsystem instruments by default.
  static Registry& global();

  /// Looks up `name`, creating the instrument on first use.  Requesting
  /// an existing name as a different kind throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const HistogramOptions& options = {});

  bool contains(const std::string& name) const;
  std::size_t size() const;

  Snapshot snapshot() const;

  /// Zeroes every instrument but keeps registrations (and the pointers
  /// held by instrumented components) valid.
  void reset();

 private:
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable common::Mutex mu_;
  std::map<std::string, Entry> entries_ MDN_GUARDED_BY(mu_);
};

/// Monotonic wall clock in nanoseconds (steady_clock); see obs::Stage.
std::int64_t wall_now_ns();

}  // namespace mdn::obs
