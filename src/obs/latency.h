// Latency attribution over journal cause chains: *where* do the
// microseconds go between a tone leaving the speaker and the FlowMod
// leaving the controller?
//
// The scoreboard (obs/scoreboard.h) reports one end-to-end latency per
// (mic, watch); this profiler splits that interval into pipeline stages
// by walking Journal::explain(action) — the chain ascending in sim time
// — and attributing each consecutive hop's sim-time delta to a stage
// named by the (from, to) record kinds:
//
//   ... -> kToneEmitted      upstream_wait  (gap before the next tone)
//   kToneEmitted -> kBlockIngested   capture   (tone start -> block end)
//   kBlockIngested -> kToneDetected  ring_wait (ingest -> merged onset)
//   kToneEmitted -> kToneDetected    detect    (no ingest record minted)
//   ... -> kMergedEvent      merge
//   ... -> kFsmTransition    fsm
//   ... -> kAppAction        app
//   ... -> kFlowMod          actuate
//   ... -> kHealthAlert      health
//   ... -> kBlockDropped     drop
//
// Deltas telescope: the per-stage sums of breakdown(action) add up
// exactly to action.sim_ns - root.sim_ns (asserted for the §4 knock in
// tests/apps/test_port_knocking.cpp).  Note that in *sim* time the
// ingest and detection records of one block share a timestamp (both are
// stamped at block end), so ring_wait is structurally 0 here — the
// wall-clock ring wait lives in the rt/worker histograms; the stage
// exists so the taxonomy (and the SLO hook) covers it when the rt
// runtime gains sim-visible queueing delay.
//
// Contract, mirroring the journal's: attribution runs at poll()/export
// time over a snapshot — never in append(), never on the audio hot
// path.  All inputs are sim-time deterministic, and profile() visits
// actions in canonical content order, so the per-stage histograms (and
// everything rendered from them) are byte-identical across worker
// counts (golden-diffed in tests/obs/test_journal_determinism.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"

namespace mdn::obs {

enum class LatencyStage : std::uint8_t {
  kUpstreamWait = 0,  ///< anything -> kToneEmitted
  kCapture = 1,       ///< kToneEmitted -> kBlockIngested
  kRingWait = 2,      ///< kBlockIngested -> kToneDetected
  kDetect = 3,        ///< kToneEmitted -> kToneDetected (no ingest)
  kMerge = 4,         ///< -> kMergedEvent
  kFsm = 5,           ///< -> kFsmTransition
  kApp = 6,           ///< -> kAppAction
  kActuate = 7,       ///< -> kFlowMod
  kHealth = 8,        ///< -> kHealthAlert
  kDrop = 9,          ///< -> kBlockDropped
};

inline constexpr std::size_t kLatencyStageCount = 10;

/// Stable lowercase name ("upstream_wait", "capture", ...).
std::string_view latency_stage_name(LatencyStage stage) noexcept;

/// The stage a hop (from -> to) attributes to.
LatencyStage latency_stage_of(JournalKind from, JournalKind to) noexcept;

/// One consecutive hop of a breakdown's critical path.
struct BreakdownHop {
  LatencyStage stage = LatencyStage::kUpstreamWait;
  JournalRecord from;
  JournalRecord to;
  std::int64_t delta_ns = 0;
};

/// The critical-path waterfall of one action: every chain hop in sim
/// order plus per-stage totals.  stage_ns sums telescope to total_ns.
struct Breakdown {
  CauseId action = 0;
  std::int64_t total_ns = 0;  ///< action.sim_ns - root.sim_ns
  std::vector<BreakdownHop> hops;
  std::array<std::int64_t, kLatencyStageCount> stage_ns{};

  std::size_t distinct_stages() const noexcept;
  /// Text waterfall, one hop per line with a proportional bar.
  std::string render() const;
};

class LatencyProfiler {
 public:
  explicit LatencyProfiler(const Journal& journal) : journal_(journal) {}
  LatencyProfiler(const LatencyProfiler&) = delete;
  LatencyProfiler& operator=(const LatencyProfiler&) = delete;

  /// Walks explain(action) and attributes each hop.  Pure query — does
  /// not touch the histograms.  Empty breakdown when `action` is
  /// unknown or evicted.
  Breakdown breakdown(CauseId action) const;

  /// Attribution pass: profiles every resident record of `kind` (in
  /// canonical content order) into the per-stage histograms and the
  /// profiled-action list.  Returns the number of actions profiled.
  /// Call at poll()/export time; repeated calls accumulate.
  std::size_t profile(JournalKind kind);

  /// Profiles one specific action into the histograms.
  void profile_action(CauseId action);

  struct StageStats {
    LatencyStage stage = LatencyStage::kUpstreamWait;
    std::uint64_t count = 0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
    double max_ns = 0.0;
    double sum_ns = 0.0;
  };
  /// Per-stage quantiles for every stage with at least one sample.
  std::vector<StageStats> summary() const;
  StageStats stage_stats(LatencyStage stage) const;
  /// The sampled stage with the largest p99 (ties: lowest stage index).
  /// count == 0 when nothing was profiled.
  StageStats slowest_stage() const;

  std::size_t actions_profiled() const noexcept { return actions_.size(); }
  const std::vector<CauseId>& actions() const noexcept { return actions_; }
  const Journal& journal() const noexcept { return journal_; }

  /// Stage table + slowest-stage line (dashboard panel).
  std::string render() const;

  /// Prometheus families (schema-linted by scripts/lint_prom.py):
  ///   mdn_latency_stage_count{stage=...}        gauge
  ///   mdn_latency_stage_p50_seconds{stage=...}  gauge
  ///   mdn_latency_stage_p99_seconds{stage=...}  gauge
  ///   mdn_latency_stage_max_seconds{stage=...}  gauge
  ///   mdn_latency_stage_sum_seconds{stage=...}  gauge
  ///   mdn_latency_actions_profiled              gauge
  std::string to_prometheus() const;

  void clear();

 private:
  const Journal& journal_;
  std::array<Histogram, kLatencyStageCount> hists_;
  std::vector<CauseId> actions_;  ///< profiled, in profile order
};

}  // namespace mdn::obs
