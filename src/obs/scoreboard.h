// Ground-truth detection scoreboard: reconciles the journal's emitted
// and detected records per (microphone, watch frequency).
//
// This is §3's testbed characterisation done inside the simulator: the
// bridge's kToneEmitted records are ground truth, detections cite their
// emission through CauseId, and the scoreboard reduces the journal to
//   * true positives (a detection citing an emission), duplicates,
//   * false positives (a detection citing nothing),
//   * misses (emissions no detection ever cited), and
//   * drop attribution (misses a kBlockDropped record accounts for —
//     which rt backpressure drop ate which tone),
// plus per-cell detection-latency samples (sim time, the Fig-2b-style
// CDF source).  export_to() materialises the counts and latency
// histograms in a Registry so they flow through the existing
// Prometheus/JSONL exporters; to_prometheus() renders labeled series
// through the shared PromWriter (obs/export.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace mdn::obs {

struct ScoreboardConfig {
  /// The watch list (frequencies under observation).  Empty derives the
  /// list from the journal: every distinct emitted/detected frequency.
  std::vector<double> watch_hz;
  /// Half-width used to match record frequencies to the watch list
  /// (mirror the detector's match_tolerance_hz).
  double tolerance_hz = 10.0;
  /// Minimum microphone count; grown to cover every mic the journal saw.
  std::size_t mics = 0;
};

class Scoreboard {
 public:
  struct Cell {
    std::uint64_t emitted = 0;          ///< ground-truth tones at this watch
    std::uint64_t detected = 0;         ///< unique emissions heard (TP)
    std::uint64_t duplicates = 0;       ///< repeat detections of a TP
    std::uint64_t false_positives = 0;  ///< detections citing no emission
    std::uint64_t missed = 0;           ///< emitted - detected
    std::uint64_t dropped = 0;          ///< misses attributed to rt drops
    std::vector<double> latencies_s;    ///< per TP, sorted ascending

    double recall() const noexcept;     ///< detected / emitted (1 if none)
    double precision() const noexcept;  ///< TP / (TP + FP)   (1 if none)
    /// Nearest-rank latency quantile in seconds (0 when no samples).
    double latency_quantile(double q) const noexcept;
    bool empty() const noexcept {
      return emitted == 0 && detected == 0 && duplicates == 0 &&
             false_positives == 0;
    }
  };

  /// Reduces the journal's resident records.  An emission with no mic
  /// (kJournalNoMic) is ground truth for every microphone — each mic is
  /// expected to hear every watched tone, the single-room reading.  An
  /// emission tagged with a mic (fleet bridges scoped to one room via
  /// PiSpeakerBridge::set_journal_mic) is ground truth for that mic
  /// only, so a 100-switch fleet doesn't score room A's tones as misses
  /// in room B.
  static Scoreboard build(const Journal& journal,
                          ScoreboardConfig config = {});

  std::size_t mic_count() const noexcept { return mics_; }
  std::size_t watch_count() const noexcept { return watch_hz_.size(); }
  double watch_hz(std::size_t watch) const { return watch_hz_.at(watch); }
  const Cell& cell(std::size_t mic, std::size_t watch) const;

  /// Aggregate over every watch of one microphone (latencies merged and
  /// re-sorted).
  Cell totals(std::size_t mic) const;
  double recall(std::size_t mic) const { return totals(mic).recall(); }
  double precision(std::size_t mic) const {
    return totals(mic).precision();
  }

  /// Aggregate over every (mic, watch) cell — the fleet-wide summary a
  /// dashboard or bench headline reports.
  Cell grand_totals() const;

  /// Materialises counters and latency histograms under
  /// "<prefix>/mic<m>/watch<w>/..." so the standard exporters pick the
  /// scoreboard up.  Counts are added, so call once per built scoreboard
  /// (reset the registry between runs as usual).
  void export_to(Registry& registry,
                 const std::string& prefix = "score") const;

  /// Labeled gauges mdn_scoreboard_{emitted,detected,false_positives,
  /// missed,dropped,recall,latency_seconds_p50,latency_seconds_p95}
  /// {mic=...,watch_hz=...} over the non-empty cells.  Hostile microphone
  /// names (backslashes, quotes, newlines) round-trip per the text format.
  std::string to_prometheus(
      std::span<const std::string> mic_names = {}) const;

  /// Dashboard text table: one row per non-empty (mic, watch) cell.
  std::string render(std::span<const std::string> mic_names = {}) const;

 private:
  std::vector<double> watch_hz_;
  std::size_t mics_ = 0;
  std::vector<Cell> cells_;  // mic-major: cells_[mic * watches + watch]
};

}  // namespace mdn::obs
