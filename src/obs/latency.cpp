#include "obs/latency.h"

#include <algorithm>
#include <cstdio>

#include "obs/export.h"

namespace mdn::obs {

std::string_view latency_stage_name(LatencyStage stage) noexcept {
  switch (stage) {
    case LatencyStage::kUpstreamWait: return "upstream_wait";
    case LatencyStage::kCapture: return "capture";
    case LatencyStage::kRingWait: return "ring_wait";
    case LatencyStage::kDetect: return "detect";
    case LatencyStage::kMerge: return "merge";
    case LatencyStage::kFsm: return "fsm";
    case LatencyStage::kApp: return "app";
    case LatencyStage::kActuate: return "actuate";
    case LatencyStage::kHealth: return "health";
    case LatencyStage::kDrop: return "drop";
  }
  return "unknown";
}

LatencyStage latency_stage_of(JournalKind from, JournalKind to) noexcept {
  switch (to) {
    case JournalKind::kToneEmitted: return LatencyStage::kUpstreamWait;
    case JournalKind::kBlockIngested: return LatencyStage::kCapture;
    case JournalKind::kToneDetected:
      return from == JournalKind::kBlockIngested ? LatencyStage::kRingWait
                                                 : LatencyStage::kDetect;
    case JournalKind::kMergedEvent: return LatencyStage::kMerge;
    case JournalKind::kFsmTransition: return LatencyStage::kFsm;
    case JournalKind::kAppAction: return LatencyStage::kApp;
    case JournalKind::kFlowMod: return LatencyStage::kActuate;
    case JournalKind::kHealthAlert: return LatencyStage::kHealth;
    case JournalKind::kBlockDropped: return LatencyStage::kDrop;
  }
  return LatencyStage::kUpstreamWait;
}

std::size_t Breakdown::distinct_stages() const noexcept {
  bool seen[kLatencyStageCount] = {};
  for (const BreakdownHop& hop : hops) {
    seen[static_cast<std::size_t>(hop.stage)] = true;
  }
  std::size_t n = 0;
  for (bool s : seen) n += s ? 1 : 0;
  return n;
}

std::string Breakdown::render() const {
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  waterfall action #%llu  total %.6fs  (%zu hops, %zu "
                "stages)\n",
                static_cast<unsigned long long>(action),
                static_cast<double>(total_ns) / 1e9, hops.size(),
                distinct_stages());
  out += buf;
  constexpr int kBarWidth = 32;
  for (const BreakdownHop& hop : hops) {
    int bar = 0;
    if (total_ns > 0) {
      bar = static_cast<int>((hop.delta_ns * kBarWidth) / total_ns);
    }
    std::snprintf(buf, sizeof(buf),
                  "    t=%9.4fs  %-13s %+11.6fs  %-14s %-*.*s (#%llu)\n",
                  static_cast<double>(hop.to.sim_ns) / 1e9,
                  std::string(latency_stage_name(hop.stage)).c_str(),
                  static_cast<double>(hop.delta_ns) / 1e9,
                  std::string(journal_kind_name(hop.to.kind)).c_str(),
                  kBarWidth, bar, "################################",
                  static_cast<unsigned long long>(hop.to.id));
    out += buf;
  }
  return out;
}

Breakdown LatencyProfiler::breakdown(CauseId action) const {
  Breakdown b;
  const auto chain = journal_.explain(action);
  if (chain.empty()) return b;
  b.action = action;
  b.total_ns = chain.back().sim_ns - chain.front().sim_ns;
  b.hops.reserve(chain.size() - 1);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    BreakdownHop hop;
    hop.stage = latency_stage_of(chain[i - 1].kind, chain[i].kind);
    hop.from = chain[i - 1];
    hop.to = chain[i];
    hop.delta_ns = chain[i].sim_ns - chain[i - 1].sim_ns;
    b.stage_ns[static_cast<std::size_t>(hop.stage)] += hop.delta_ns;
    b.hops.push_back(hop);
  }
  return b;
}

std::size_t LatencyProfiler::profile(JournalKind kind) {
  auto records = journal_.snapshot();
  records.erase(std::remove_if(records.begin(), records.end(),
                               [kind](const JournalRecord& r) {
                                 return r.kind != kind;
                               }),
                records.end());
  // Content order, not mint order, which varies with worker interleaving.
  std::stable_sort(records.begin(), records.end(), journal_content_before);
  for (const JournalRecord& r : records) profile_action(r.id);
  return records.size();
}

void LatencyProfiler::profile_action(CauseId action) {
  const Breakdown b = breakdown(action);
  if (b.hops.empty()) return;
  for (const BreakdownHop& hop : b.hops) {
    hists_[static_cast<std::size_t>(hop.stage)].record(
        static_cast<double>(hop.delta_ns));
  }
  actions_.push_back(action);
}

LatencyProfiler::StageStats LatencyProfiler::stage_stats(
    LatencyStage stage) const {
  const Histogram& hist = hists_[static_cast<std::size_t>(stage)];
  const HistogramSnapshot snap = hist.snapshot();
  StageStats stats;
  stats.stage = stage;
  stats.count = snap.count;
  stats.p50_ns = snap.quantile(0.5);
  stats.p99_ns = snap.quantile(0.99);
  stats.max_ns = snap.count == 0 ? 0.0 : snap.max;
  stats.sum_ns = snap.sum;
  return stats;
}

std::vector<LatencyProfiler::StageStats> LatencyProfiler::summary() const {
  std::vector<StageStats> out;
  for (std::size_t s = 0; s < kLatencyStageCount; ++s) {
    StageStats stats = stage_stats(static_cast<LatencyStage>(s));
    if (stats.count == 0) continue;
    out.push_back(stats);
  }
  return out;
}

LatencyProfiler::StageStats LatencyProfiler::slowest_stage() const {
  StageStats slowest;
  for (const StageStats& stats : summary()) {
    if (slowest.count == 0 || stats.p99_ns > slowest.p99_ns) {
      slowest = stats;
    }
  }
  return slowest;
}

std::string LatencyProfiler::render() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency attribution: %zu action(s) profiled\n",
                actions_.size());
  out += buf;
  out += "  stage             count     p50_ms     p99_ms     max_ms"
         "   total_ms\n";
  for (const StageStats& stats : summary()) {
    std::snprintf(buf, sizeof(buf),
                  "  %-14s %8llu %10.4f %10.4f %10.4f %10.3f\n",
                  std::string(latency_stage_name(stats.stage)).c_str(),
                  static_cast<unsigned long long>(stats.count),
                  stats.p50_ns / 1e6, stats.p99_ns / 1e6, stats.max_ns / 1e6,
                  stats.sum_ns / 1e6);
    out += buf;
  }
  const StageStats slowest = slowest_stage();
  if (slowest.count != 0) {
    std::snprintf(buf, sizeof(buf), "  slowest stage: %s (p99 %.4f ms)\n",
                  std::string(latency_stage_name(slowest.stage)).c_str(),
                  slowest.p99_ns / 1e6);
    out += buf;
  }
  return out;
}

std::string LatencyProfiler::to_prometheus() const {
  const std::vector<StageStats> stages = summary();
  std::vector<PromLabels> stage(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    stage[i].add("stage", latency_stage_name(stages[i].stage));
  }
  std::string out;
  PromWriter prom(out);
  prom.family("mdn_latency_stage_count", "gauge", stage,
              [&](std::size_t i) { return stages[i].count; });
  prom.family("mdn_latency_stage_p50_seconds", "gauge", stage,
              [&](std::size_t i) { return stages[i].p50_ns / 1e9; });
  prom.family("mdn_latency_stage_p99_seconds", "gauge", stage,
              [&](std::size_t i) { return stages[i].p99_ns / 1e9; });
  prom.family("mdn_latency_stage_max_seconds", "gauge", stage,
              [&](std::size_t i) { return stages[i].max_ns / 1e9; });
  prom.family("mdn_latency_stage_sum_seconds", "gauge", stage,
              [&](std::size_t i) { return stages[i].sum_ns / 1e9; });
  prom.family("mdn_latency_actions_profiled", "gauge");
  prom.sample(actions_.size());
  return out;
}

void LatencyProfiler::clear() {
  for (Histogram& hist : hists_) hist.reset();
  actions_.clear();
}

}  // namespace mdn::obs
