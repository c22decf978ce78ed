#include "obs/timeline.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/export.h"

namespace mdn::obs {

Timeline::Timeline(TimelineOptions options)
    : capacity_(options.capacity == 0 ? 1 : options.capacity) {
  times_.resize(capacity_, 0);
}

void Timeline::add_track(Track track) {
  if (sampled_ != 0) {
    throw std::logic_error("Timeline: track_* after sample() started");
  }
  tracks_.push_back(std::move(track));
  values_.assign(capacity_ * tracks_.size(), 0.0);
}

void Timeline::track_counter(std::string_view name, const Counter& counter) {
  Track t;
  t.name.assign(name);
  t.counter = &counter;
  add_track(std::move(t));
}

void Timeline::track_gauge(std::string_view name, const Gauge& gauge) {
  Track t;
  t.name.assign(name);
  t.gauge = &gauge;
  add_track(std::move(t));
}

void Timeline::track_counter(Registry& registry, const std::string& name) {
  track_counter(name, registry.counter(name));
}

void Timeline::track_gauge(Registry& registry, const std::string& name) {
  track_gauge(name, registry.gauge(name));
}

void Timeline::sample(std::int64_t sim_ns) noexcept {
  const std::size_t slot = static_cast<std::size_t>(sampled_ % capacity_);
  times_[slot] = sim_ns;
  double* row = values_.data() + slot * tracks_.size();
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    row[t] = read(tracks_[t]);
  }
  ++sampled_;
}

std::size_t Timeline::size() const noexcept {
  return sampled_ < capacity_ ? static_cast<std::size_t>(sampled_)
                              : capacity_;
}

std::uint64_t Timeline::dropped() const noexcept {
  return sampled_ < capacity_ ? 0 : sampled_ - capacity_;
}

std::size_t Timeline::row_slot(std::size_t row) const noexcept {
  // Oldest resident row sits right after the write cursor once wrapped.
  const std::size_t oldest =
      sampled_ < capacity_ ? 0 : static_cast<std::size_t>(sampled_ % capacity_);
  return (oldest + row) % capacity_;
}

std::int64_t Timeline::time_at(std::size_t row) const {
  if (row >= size()) throw std::out_of_range("Timeline::time_at");
  return times_[row_slot(row)];
}

double Timeline::value_at(std::size_t row, std::size_t track) const {
  if (row >= size()) throw std::out_of_range("Timeline::value_at");
  if (track >= tracks_.size()) throw std::out_of_range("Timeline::value_at");
  return values_[row_slot(row) * tracks_.size() + track];
}

Timeline::Rollup Timeline::rollup(std::size_t track) const {
  Rollup r;
  const std::size_t rows = size();
  if (track >= tracks_.size() || rows == 0) return r;
  r.first = value_at(0, track);
  r.last = value_at(rows - 1, track);
  r.min = r.first;
  r.max = r.first;
  for (std::size_t i = 1; i < rows; ++i) {
    const double v = value_at(i, track);
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  r.delta = r.last - r.first;
  const std::int64_t window_ns = time_at(rows - 1) - time_at(0);
  if (window_ns > 0) {
    r.rate_per_s = r.delta / (static_cast<double>(window_ns) / 1e9);
  }
  return r;
}

std::string Timeline::to_timeline_jsonl() const {
  std::string out;
  const std::size_t rows = size();
  for (std::size_t i = 0; i < rows; ++i) {
    out += "{\"t_ns\":" + std::to_string(time_at(i)) + ",\"values\":{";
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
      if (t != 0) out += ',';
      out.append("\"").append(json_escape(tracks_[t].name)).append("\":");
      append_number(out, value_at(i, t));
    }
    out += "}}\n";
  }
  return out;
}

std::string Timeline::to_prometheus() const {
  std::string out;
  PromWriter prom(out);
  prom.family("mdn_timeline_samples", "gauge");
  prom.sample(sampled_);
  prom.family("mdn_timeline_dropped", "gauge");
  prom.sample(dropped());
  if (size() == 0) return out;
  std::vector<PromLabels> track(tracks_.size());
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    track[t].add("track", tracks_[t].name);
  }
  prom.family("mdn_timeline_last", "gauge", track,
              [&](std::size_t t) { return rollup(t).last; });
  prom.family("mdn_timeline_min", "gauge", track,
              [&](std::size_t t) { return rollup(t).min; });
  prom.family("mdn_timeline_max", "gauge", track,
              [&](std::size_t t) { return rollup(t).max; });
  prom.family("mdn_timeline_rate_per_second", "gauge", track,
              [&](std::size_t t) { return rollup(t).rate_per_s; });
  return out;
}

std::string Timeline::render_sparklines(std::size_t width) const {
  static constexpr const char* kLevels[] = {" ", "▁", "▂", "▃",
                                            "▄", "▅", "▆", "▇", "█"};
  constexpr std::size_t kLevelCount = 9;
  std::string out;
  const std::size_t rows = size();
  if (rows == 0 || tracks_.empty()) {
    out += "  timeline: no samples\n";
    return out;
  }
  if (width == 0) width = 1;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  timeline: %zu row(s), window %.3fs..%.3fs\n", rows,
                static_cast<double>(time_at(0)) / 1e9,
                static_cast<double>(time_at(rows - 1)) / 1e9);
  out += buf;
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const Rollup r = rollup(t);
    std::snprintf(buf, sizeof(buf), "  %-26.26s ", tracks_[t].name.c_str());
    out += buf;
    const double span = r.max - r.min;
    // Bucket the window into `width` columns; each column shows the max
    // of its rows so short spikes stay visible.
    const std::size_t columns = std::min(width, rows);
    for (std::size_t c = 0; c < columns; ++c) {
      const std::size_t lo = c * rows / columns;
      const std::size_t hi = std::max(lo + 1, (c + 1) * rows / columns);
      double v = value_at(lo, t);
      for (std::size_t i = lo + 1; i < hi; ++i) {
        v = std::max(v, value_at(i, t));
      }
      std::size_t level = 0;
      if (span > 0.0) {
        level = static_cast<std::size_t>((v - r.min) / span *
                                         (kLevelCount - 1));
        level = std::min(level, kLevelCount - 1);
      } else if (v != 0.0) {
        level = kLevelCount - 1;
      }
      out += kLevels[level];
    }
    const std::pair<const char*, double> stats[] = {
        {"  last=", r.last}, {" min=", r.min}, {" max=", r.max},
        {" rate=", r.rate_per_s}};
    for (const auto& [key, value] : stats) {
      out += key;
      append_number(out, value);
    }
    out += "/s\n";
  }
  return out;
}

void Timeline::clear() noexcept {
  sampled_ = 0;
  std::fill(times_.begin(), times_.end(), 0);
  std::fill(values_.begin(), values_.end(), 0.0);
}

}  // namespace mdn::obs
