#include "obs/scoreboard.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "obs/export.h"

namespace mdn::obs {
namespace {

/// Watch list indexed for O(log n) nearest-frequency lookup.  The fleet
/// bench watches thousands of tones over hundreds of thousands of
/// journal records; the old linear scan per record was quadratic there.
class WatchIndex {
 public:
  explicit WatchIndex(const std::vector<double>& watch_hz) {
    sorted_.reserve(watch_hz.size());
    for (std::size_t w = 0; w < watch_hz.size(); ++w) {
      sorted_.push_back({watch_hz[w], static_cast<int>(w)});
    }
    std::sort(sorted_.begin(), sorted_.end());
  }

  /// Index (in the original watch order) of the closest watch within
  /// tolerance, or -1.  Ties prefer the later original index, matching
  /// the previous linear scan's `<=` update rule.
  int match(double frequency_hz, double tolerance_hz) const {
    if (sorted_.empty()) return -1;
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(),
                                     std::pair{frequency_hz, -1});
    int best = -1;
    double best_diff = tolerance_hz;
    const auto consider = [&](const std::pair<double, int>& cand) {
      const double diff = std::abs(cand.first - frequency_hz);
      if (diff < best_diff ||
          (diff == best_diff && cand.second > best)) {
        best_diff = diff;
        best = cand.second;
      }
    };
    if (it != sorted_.end()) consider(*it);
    if (it != sorted_.begin()) consider(*(it - 1));
    // Equal frequencies can repeat in a caller-supplied list; scan the
    // run of exact matches so the tie rule sees them all.
    for (auto fwd = it;
         fwd != sorted_.end() && fwd->first == frequency_hz; ++fwd) {
      consider(*fwd);
    }
    return best;
  }

 private:
  std::vector<std::pair<double, int>> sorted_;
};

std::string mic_label(std::span<const std::string> names, std::size_t mic) {
  if (mic < names.size()) return names[mic];
  return "mic" + std::to_string(mic);
}

}  // namespace

double Scoreboard::Cell::recall() const noexcept {
  if (emitted == 0) return 1.0;
  return static_cast<double>(detected) / static_cast<double>(emitted);
}

double Scoreboard::Cell::precision() const noexcept {
  const std::uint64_t tp = detected + duplicates;
  if (tp + false_positives == 0) return 1.0;
  return static_cast<double>(tp) /
         static_cast<double>(tp + false_positives);
}

double Scoreboard::Cell::latency_quantile(double q) const noexcept {
  if (latencies_s.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(latencies_s.size())));
  return latencies_s[rank == 0 ? 0 : rank - 1];
}

Scoreboard Scoreboard::build(const Journal& journal,
                             ScoreboardConfig config) {
  const auto records = journal.snapshot();
  Scoreboard board;

  board.watch_hz_ = config.watch_hz;
  if (board.watch_hz_.empty()) {
    for (const auto& r : records) {
      if ((r.kind == JournalKind::kToneEmitted ||
           r.kind == JournalKind::kToneDetected) &&
          r.frequency_hz > 0.0) {
        board.watch_hz_.push_back(r.frequency_hz);
      }
    }
    std::sort(board.watch_hz_.begin(), board.watch_hz_.end());
    board.watch_hz_.erase(
        std::unique(board.watch_hz_.begin(), board.watch_hz_.end()),
        board.watch_hz_.end());
  }

  board.mics_ = config.mics;
  for (const auto& r : records) {
    if (r.mic != kJournalNoMic && r.mic + 1u > board.mics_) {
      board.mics_ = r.mic + 1u;
    }
  }
  if (board.mics_ == 0) board.mics_ = 1;
  board.cells_.assign(board.mics_ * board.watch_hz_.size(), Cell{});
  if (board.watch_hz_.empty()) return board;

  const auto cell_at = [&board](std::size_t mic, std::size_t w) -> Cell& {
    return board.cells_[mic * board.watch_hz_.size() + w];
  };
  const WatchIndex index(board.watch_hz_);

  // Pass 1 — ground truth: map every tracked emission to its watch.  A
  // mic-tagged emission (fleet bridge scoped to one room) is truth for
  // that mic only; an untagged one is truth for every mic.
  std::map<CauseId, std::pair<int, std::int64_t>> emissions;  // id -> (w, t)
  for (const auto& r : records) {
    if (r.kind != JournalKind::kToneEmitted) continue;
    const int w = index.match(r.frequency_hz, config.tolerance_hz);
    if (w < 0) continue;  // outside the watch list: not scored
    emissions[r.id] = {w, r.sim_ns};
    if (r.mic != kJournalNoMic) {
      if (r.mic < board.mics_) {
        ++cell_at(r.mic, static_cast<std::size_t>(w)).emitted;
      }
      continue;
    }
    for (std::size_t mic = 0; mic < board.mics_; ++mic) {
      ++cell_at(mic, static_cast<std::size_t>(w)).emitted;
    }
  }

  // Pass 2 — detections: cite-an-emission is a TP, otherwise an FP.
  std::set<std::pair<CauseId, std::uint32_t>> heard;  // (emission, mic)
  for (const auto& r : records) {
    if (r.kind != JournalKind::kToneDetected) continue;
    const std::uint32_t mic = r.mic == kJournalNoMic ? 0 : r.mic;
    if (mic >= board.mics_) continue;
    const int w = index.match(r.frequency_hz, config.tolerance_hz);
    if (w < 0) continue;
    Cell& cell = cell_at(mic, static_cast<std::size_t>(w));
    const auto it = emissions.find(r.cause);
    if (it == emissions.end()) {
      ++cell.false_positives;
      continue;
    }
    if (heard.insert({r.cause, mic}).second) {
      ++cell.detected;
      cell.latencies_s.push_back(
          static_cast<double>(r.sim_ns - it->second.second) / 1e9);
    } else {
      ++cell.duplicates;
    }
  }

  // Pass 3 — drop attribution: a dropped block citing an emission that
  // was never heard by that microphone accounts for the miss.
  std::set<std::pair<CauseId, std::uint32_t>> drop_attributed;
  for (const auto& r : records) {
    if (r.kind != JournalKind::kBlockDropped || r.cause == 0) continue;
    const std::uint32_t mic = r.mic == kJournalNoMic ? 0 : r.mic;
    if (mic >= board.mics_) continue;
    const auto it = emissions.find(r.cause);
    if (it == emissions.end()) continue;
    if (heard.count({r.cause, mic}) != 0) continue;  // heard anyway
    if (drop_attributed.insert({r.cause, mic}).second) {
      ++cell_at(mic, static_cast<std::size_t>(it->second.first)).dropped;
    }
  }

  for (Cell& cell : board.cells_) {
    cell.missed = cell.emitted - std::min(cell.emitted, cell.detected);
    std::sort(cell.latencies_s.begin(), cell.latencies_s.end());
  }
  return board;
}

const Scoreboard::Cell& Scoreboard::cell(std::size_t mic,
                                         std::size_t watch) const {
  return cells_.at(mic * watch_hz_.size() + watch);
}

Scoreboard::Cell Scoreboard::grand_totals() const {
  Cell total;
  for (std::size_t mic = 0; mic < mics_; ++mic) {
    const Cell c = totals(mic);
    total.emitted += c.emitted;
    total.detected += c.detected;
    total.duplicates += c.duplicates;
    total.false_positives += c.false_positives;
    total.missed += c.missed;
    total.dropped += c.dropped;
    total.latencies_s.insert(total.latencies_s.end(),
                             c.latencies_s.begin(), c.latencies_s.end());
  }
  std::sort(total.latencies_s.begin(), total.latencies_s.end());
  return total;
}

Scoreboard::Cell Scoreboard::totals(std::size_t mic) const {
  Cell total;
  for (std::size_t w = 0; w < watch_hz_.size(); ++w) {
    const Cell& c = cell(mic, w);
    total.emitted += c.emitted;
    total.detected += c.detected;
    total.duplicates += c.duplicates;
    total.false_positives += c.false_positives;
    total.missed += c.missed;
    total.dropped += c.dropped;
    total.latencies_s.insert(total.latencies_s.end(),
                             c.latencies_s.begin(), c.latencies_s.end());
  }
  std::sort(total.latencies_s.begin(), total.latencies_s.end());
  return total;
}

void Scoreboard::export_to(Registry& registry,
                           const std::string& prefix) const {
  for (std::size_t mic = 0; mic < mics_; ++mic) {
    for (std::size_t w = 0; w < watch_hz_.size(); ++w) {
      const Cell& c = cell(mic, w);
      if (c.empty()) continue;
      const std::string base = prefix + "/mic" + std::to_string(mic) +
                               "/watch" + std::to_string(w) + "/";
      registry.counter(base + "emitted").add(c.emitted);
      registry.counter(base + "detected").add(c.detected);
      registry.counter(base + "duplicates").add(c.duplicates);
      registry.counter(base + "false_positives").add(c.false_positives);
      registry.counter(base + "missed").add(c.missed);
      registry.counter(base + "dropped").add(c.dropped);
      Histogram& latency = registry.histogram(base + "latency_ns");
      for (double s : c.latencies_s) latency.record(s * 1e9);
    }
  }
}

std::string Scoreboard::to_prometheus(
    std::span<const std::string> mic_names) const {
  // One label block per non-empty cell, shared by all eight families.
  std::vector<const Cell*> cells;
  std::vector<PromLabels> labels;
  for (std::size_t mic = 0; mic < mics_; ++mic) {
    for (std::size_t w = 0; w < watch_hz_.size(); ++w) {
      const Cell& c = cell(mic, w);
      if (c.empty()) continue;
      cells.push_back(&c);
      labels.emplace_back()
          .add("mic", mic_label(mic_names, mic))
          .add("watch_hz", watch_hz_[w]);
    }
  }
  std::string out;
  PromWriter prom(out);
  prom.family("mdn_scoreboard_emitted", "gauge", labels,
              [&](std::size_t i) { return cells[i]->emitted; });
  prom.family("mdn_scoreboard_detected", "gauge", labels,
              [&](std::size_t i) { return cells[i]->detected; });
  prom.family("mdn_scoreboard_false_positives", "gauge", labels,
              [&](std::size_t i) { return cells[i]->false_positives; });
  prom.family("mdn_scoreboard_missed", "gauge", labels,
              [&](std::size_t i) { return cells[i]->missed; });
  prom.family("mdn_scoreboard_dropped", "gauge", labels,
              [&](std::size_t i) { return cells[i]->dropped; });
  prom.family("mdn_scoreboard_recall", "gauge", labels,
              [&](std::size_t i) { return cells[i]->recall(); });
  prom.family("mdn_scoreboard_latency_seconds_p50", "gauge", labels,
              [&](std::size_t i) { return cells[i]->latency_quantile(0.5); });
  prom.family("mdn_scoreboard_latency_seconds_p95", "gauge", labels,
              [&](std::size_t i) { return cells[i]->latency_quantile(0.95); });
  return out;
}

std::string Scoreboard::render(
    std::span<const std::string> mic_names) const {
  std::string out =
      "    mic            watch_hz  emitted  detected  fp  missed  dropped"
      "  recall  precision  p50_ms  p95_ms\n";
  char buf[192];
  for (std::size_t mic = 0; mic < mics_; ++mic) {
    for (std::size_t w = 0; w < watch_hz_.size(); ++w) {
      const Cell& c = cell(mic, w);
      if (c.empty()) continue;
      std::snprintf(
          buf, sizeof(buf),
          "    %-12s %10.1f %8llu %9llu %3llu %7llu %8llu  %6.3f %10.3f"
          " %7.1f %7.1f\n",
          mic_label(mic_names, mic).c_str(), watch_hz_[w],
          static_cast<unsigned long long>(c.emitted),
          static_cast<unsigned long long>(c.detected),
          static_cast<unsigned long long>(c.false_positives),
          static_cast<unsigned long long>(c.missed),
          static_cast<unsigned long long>(c.dropped), c.recall(),
          c.precision(), c.latency_quantile(0.5) * 1e3,
          c.latency_quantile(0.95) * 1e3);
      out += buf;
    }
  }
  return out;
}

}  // namespace mdn::obs
