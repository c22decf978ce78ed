#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/export.h"

namespace mdn::obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::string_view health_state_name(HealthState state) noexcept {
  switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kFailed: return "failed";
  }
  return "unknown";
}

std::string_view slo_metric_name(SloSpec::Metric metric) noexcept {
  switch (metric) {
    case SloSpec::Metric::kNoiseFloor: return "noise_floor";
    case SloSpec::Metric::kMinSnrDb: return "min_snr_db";
    case SloSpec::Metric::kOnsetRateHz: return "onset_rate_hz";
    case SloSpec::Metric::kSilenceS: return "silence_s";
    case SloSpec::Metric::kDropCount: return "drop_count";
    case SloSpec::Metric::kStageLatencyP99: return "stage_latency_p99";
  }
  return "unknown";
}

// --- MicSignalEstimator ------------------------------------------------

MicSignalEstimator::MicSignalEstimator(const Health* owner,
                                       const HealthConfig& config)
    : owner_(owner),
      config_(&config),
      min_snr_db_(kInf),
      snr_db_(config.watch_count),
      alert_slots_(config.alert_capacity == 0 ? 1 : config.alert_capacity) {
  // mo: pre-publication init — the estimator is not shared yet
  for (auto& s : snr_db_) s.store(kNan, std::memory_order_relaxed);
}

void MicSignalEstimator::begin_block(double block_end_s,
                                     const BlockSignalStats& stats) noexcept {
  prev_block_end_s_ = first_block_ ? block_end_s : block_end_s_;
  block_end_s_ = block_end_s;
  onsets_in_block_ = 0.0;
  // mo: single-writer readback of its own gauge, no cross-thread edge
  double floor = noise_floor_.load(std::memory_order_relaxed);
  if (first_block_) {
    floor = stats.noise_floor;
    // Silence is measured from stream start until a watch is heard.
    last_signal_s_ = prev_block_end_s_;
  } else {
    floor += config_->noise_floor_alpha * (stats.noise_floor - floor);
  }
  // mo: monitoring gauge publish, readers tolerate staleness
  noise_floor_.store(floor, std::memory_order_relaxed);
}

void MicSignalEstimator::observe_watch(std::size_t watch, bool present,
                                       bool onset, double amplitude,
                                       CauseId evidence) noexcept {
  if (onset) onsets_in_block_ += 1.0;
  if (!present) return;
  last_signal_s_ = block_end_s_;
  if (evidence != 0) last_evidence_ = evidence;
  if (watch >= snr_db_.size() || amplitude <= 0.0) return;
  // mo: single-writer readback of its own gauge, no cross-thread edge
  const double floor = noise_floor_.load(std::memory_order_relaxed);
  if (floor <= 0.0) return;  // no noise estimate yet: SNR undefined
  const double snr = 20.0 * std::log10(amplitude / floor);
  // mo: single-writer readback of its own gauge, no cross-thread edge
  const double cur = snr_db_[watch].load(std::memory_order_relaxed);
  const double next =
      std::isnan(cur) ? snr : cur + config_->snr_alpha * (snr - cur);
  // mo: monitoring gauge publish, readers tolerate staleness
  snr_db_[watch].store(next, std::memory_order_relaxed);
}

void MicSignalEstimator::end_block() MDN_CHECK_NOEXCEPT {
  const double dt = block_end_s_ - prev_block_end_s_;
  if (dt > 0.0) {
    const double alpha = 1.0 - std::exp(-dt / config_->onset_rate_tau_s);
    // mo: single-writer readback of its own gauge, no cross-thread edge
    double rate = onset_rate_hz_.load(std::memory_order_relaxed);
    rate += alpha * (onsets_in_block_ / dt - rate);
    // mo: monitoring gauge publish, readers tolerate staleness
    onset_rate_hz_.store(rate, std::memory_order_relaxed);
  }
  // mo: monitoring gauge publish, readers tolerate staleness
  silence_s_.store(block_end_s_ - last_signal_s_, std::memory_order_relaxed);
  double min_snr = kInf;
  for (std::size_t w = 0; w < snr_db_.size(); ++w) {
    // mo: single-writer readback of its own gauge, no cross-thread edge
    const double s = snr_db_[w].load(std::memory_order_relaxed);
    if (!std::isnan(s) && s < min_snr) min_snr = s;
  }
  // mo: monitoring gauge publish, readers tolerate staleness
  min_snr_db_.store(min_snr, std::memory_order_relaxed);
  // mo: monitoring counter, no ordering needed with other state
  blocks_.fetch_add(1, std::memory_order_relaxed);

  // Rule pass: track each objective's for-duration window at block
  // granularity, then move to the worst severity among firing rules.
  const std::size_t rules =
      std::min(owner_->slos_.size(), held_since_s_.size());
  HealthState target = HealthState::kOk;
  std::uint32_t firing_rule = kHealthNoRule;
  double firing_value = 0.0;
  for (std::size_t r = 0; r < rules; ++r) {
    const SloSpec& spec = owner_->slos_[r];
    const double v = metric_value(spec);
    const bool cond = spec.op == SloSpec::Op::kAbove ? v > spec.threshold
                                                     : v < spec.threshold;
    if (!cond) {
      held_since_s_[r] = kNan;
      continue;
    }
    if (std::isnan(held_since_s_[r])) held_since_s_[r] = prev_block_end_s_;
    if (block_end_s_ - held_since_s_[r] < spec.for_s) continue;
    if (static_cast<int>(spec.severity) > static_cast<int>(target)) {
      target = spec.severity;
      firing_rule = static_cast<std::uint32_t>(r);
      firing_value = v;
    }
  }
  // mo: single-writer readback of its own gauge, no cross-thread edge
  const auto cur = static_cast<HealthState>(
      state_.load(std::memory_order_relaxed));
  if (target == cur) {
    first_block_ = false;
    return;
  }
  // mo: monitoring gauge publish, readers tolerate staleness
  state_.store(static_cast<std::uint8_t>(target), std::memory_order_relaxed);
  PendingAlert alert;
  alert.time_s = block_end_s_;
  alert.rule = firing_rule;
  alert.from = cur;
  alert.to = target;
  alert.value = firing_value;
  alert.evidence = last_evidence_;
  if (firing_rule != kHealthNoRule &&
      owner_->slos_[firing_rule].metric == SloSpec::Metric::kDropCount) {
    // mo: best-effort evidence hint; any recent drop's id is acceptable
    alert.evidence = drop_evidence_.load(std::memory_order_relaxed);
  }
  queue_alert(alert);
  first_block_ = false;
}

void MicSignalEstimator::note_drop(CauseId evidence) noexcept {
  // mo: monitoring counter, no ordering needed with other state
  drops_.fetch_add(1, std::memory_order_relaxed);
  if (evidence != 0) {
    // mo: best-effort evidence hint; any recent drop's id is acceptable
    drop_evidence_.store(evidence, std::memory_order_relaxed);
  }
}

double MicSignalEstimator::snr_db(std::size_t watch) const noexcept {
  if (watch >= snr_db_.size()) return kNan;
  // mo: monitoring gauge, staleness tolerated by every reader
  return snr_db_[watch].load(std::memory_order_relaxed);
}

double MicSignalEstimator::metric_value(const SloSpec& spec) const noexcept {
  switch (spec.metric) {
    case SloSpec::Metric::kNoiseFloor:
      // mo: single-writer readback of its own gauge, no cross-thread edge
      return noise_floor_.load(std::memory_order_relaxed);
    case SloSpec::Metric::kMinSnrDb:
      // mo: single-writer readback of its own gauge, no cross-thread edge
      return min_snr_db_.load(std::memory_order_relaxed);
    case SloSpec::Metric::kOnsetRateHz:
      // mo: single-writer readback of its own gauge, no cross-thread edge
      return onset_rate_hz_.load(std::memory_order_relaxed);
    case SloSpec::Metric::kSilenceS:
      // mo: single-writer readback of its own gauge, no cross-thread edge
      return silence_s_.load(std::memory_order_relaxed);
    case SloSpec::Metric::kDropCount:
      // mo: monitoring counter, staleness only delays the rule a block
      return static_cast<double>(drops_.load(std::memory_order_relaxed));
    case SloSpec::Metric::kStageLatencyP99:
      // NaN until the owner publishes, so comparisons stay false and
      // the rule cannot fire on unprofiled stages.
      // mo: owner-published gauge, staleness tolerated by the rule pass
      return owner_->stage_latency_s_[static_cast<std::size_t>(spec.stage)]
          .load(std::memory_order_relaxed);
  }
  return 0.0;
}

void MicSignalEstimator::queue_alert(const PendingAlert& alert) MDN_CHECK_NOEXCEPT {
  // mo: producer-owned cursor, only this thread advances it
  const std::uint64_t head = alert_head_.load(std::memory_order_relaxed);
  // mo: pairs with poll()'s release tail store — the consumer's slot
  // reads happen-before this producer reuses the slot
  const std::uint64_t tail = alert_tail_.load(std::memory_order_acquire);
  if (head - tail >= alert_slots_.size()) {
    // mo: monitoring counter, no ordering needed with other state
    alert_overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  alert_slots_[head % alert_slots_.size()].write(alert);
  // mo: release publishes the filled slot to poll()'s acquire head load
  alert_head_.store(head + 1, std::memory_order_release);
}

// --- Health ------------------------------------------------------------

Health::Health(HealthConfig config) : config_(config) {
  if (config_.alert_capacity == 0) config_.alert_capacity = 1;
  // mo: pre-publication init — the engine is not shared yet
  for (auto& s : stage_latency_s_) s.store(kNan, std::memory_order_relaxed);
}

void Health::publish_stage_latency(LatencyStage stage,
                                   double p99_s) noexcept {
  // mo: monitoring gauge publish, readers tolerate staleness
  stage_latency_s_[static_cast<std::size_t>(stage)].store(
      p99_s, std::memory_order_relaxed);
}

double Health::stage_latency_p99_s(LatencyStage stage) const noexcept {
  // mo: monitoring gauge, staleness tolerated by every reader
  return stage_latency_s_[static_cast<std::size_t>(stage)].load(
      std::memory_order_relaxed);
}

std::uint32_t Health::add_mic(std::string name) {
  const auto id = static_cast<std::uint32_t>(estimators_.size());
  mic_names_.push_back(std::move(name));
  estimators_.emplace_back(new MicSignalEstimator(this, config_));
  estimators_.back()->held_since_s_.assign(slos_.size(), kNan);
  alert_counts_.push_back(0);
  Registry& reg = Registry::global();
  const std::string prefix = "health/mic/" + std::to_string(id);
  state_gauges_.push_back(&reg.gauge(prefix + "/state"));
  alert_counters_.push_back(&reg.counter(prefix + "/alerts"));
  if (alerts_total_ == nullptr) {
    alerts_total_ = &reg.counter("health/alerts");
  }
  return id;
}

void Health::add_slo(SloSpec spec) {
  slos_.push_back(std::move(spec));
  for (auto& est : estimators_) {
    est->held_since_s_.assign(slos_.size(), kNan);
  }
}

std::size_t Health::poll() {
  Journal& journal = Journal::global();
  std::size_t drained = 0;
  for (std::uint32_t mic = 0; mic < estimators_.size(); ++mic) {
    MicSignalEstimator& est = *estimators_[mic];
    // mo: consumer-owned cursor, only this thread advances it
    std::uint64_t tail = est.alert_tail_.load(std::memory_order_relaxed);
    // mo: pairs with queue_alert's release head store — slot contents
    // written before the publish are visible below
    const std::uint64_t head =
        est.alert_head_.load(std::memory_order_acquire);
    while (tail != head) {
      const MicSignalEstimator::PendingAlert p =
          est.alert_slots_[tail % est.alert_slots_.size()].read();
      HealthAlert alert;
      alert.time_s = p.time_s;
      alert.mic = mic;
      alert.rule = p.rule;
      alert.from = p.from;
      alert.to = p.to;
      alert.value = p.value;
      alert.evidence = p.evidence;
      if (journal.enabled()) {
        JournalRecord rec;
        rec.cause = p.evidence;
        rec.sim_ns = std::llround(p.time_s * 1e9);
        rec.value = p.value;
        rec.aux = (static_cast<std::uint64_t>(p.rule) << 32) |
                  (static_cast<std::uint64_t>(p.from) << 8) |
                  static_cast<std::uint64_t>(p.to);
        rec.mic = mic;
        rec.kind = JournalKind::kHealthAlert;
        set_journal_label(rec, p.rule == kHealthNoRule
                                   ? std::string_view("recovered")
                                   : std::string_view(slos_[p.rule].name));
        alert.record = journal.append(rec);
      }
      alerts_.push_back(alert);
      ++alert_counts_[mic];
      alert_counters_[mic]->inc();
      alerts_total_->inc();
      ++tail;
      ++drained;
    }
    // mo: release recycles the drained slots to queue_alert's acquire
    // tail load
    est.alert_tail_.store(tail, std::memory_order_release);
    // mo: monitoring gauge, staleness tolerated by every reader
    state_gauges_[mic]->set(static_cast<std::int64_t>(
        est.state_.load(std::memory_order_relaxed)));
  }
  return drained;
}

std::uint64_t Health::alerts_dropped() const MDN_CHECK_NOEXCEPT {
  std::uint64_t total = 0;
  for (const auto& est : estimators_) total += est->alerts_dropped();
  return total;
}

Health::Report Health::report() const {
  Report report;
  report.mics.reserve(estimators_.size());
  for (std::size_t i = 0; i < estimators_.size(); ++i) {
    const MicSignalEstimator& est = *estimators_[i];
    MicReport mic;
    mic.name = mic_names_[i];
    mic.state = est.state();
    mic.noise_floor = est.noise_floor();
    mic.min_snr_db = est.min_snr_db();
    mic.onset_rate_hz = est.onset_rate_hz();
    mic.silence_s = est.silence_s();
    mic.drops = est.drops();
    mic.blocks = est.blocks();
    mic.alerts = alert_counts_[i];
    if (static_cast<int>(mic.state) > static_cast<int>(report.worst)) {
      report.worst = mic.state;
    }
    report.mics.push_back(std::move(mic));
  }
  report.alerts = alerts_.size();
  return report;
}

std::string Health::render() const {
  const Report rep = report();
  std::string out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "health: %zu mic(s), %zu rule(s), worst=%s, %zu alert(s)\n",
                rep.mics.size(), slos_.size(),
                std::string(health_state_name(rep.worst)).c_str(),
                rep.alerts);
  out += buf;
  out +=
      "  mic               state      noise_floor  min_snr_db  onset_hz"
      "  silence_s   drops  blocks\n";
  for (const MicReport& mic : rep.mics) {
    std::snprintf(buf, sizeof(buf),
                  "  %-17s %-9s  %11.6g  %10.6g  %8.3g  %9.4g  %6llu  %6llu\n",
                  mic.name.c_str(),
                  std::string(health_state_name(mic.state)).c_str(),
                  mic.noise_floor, mic.min_snr_db, mic.onset_rate_hz,
                  mic.silence_s,
                  static_cast<unsigned long long>(mic.drops),
                  static_cast<unsigned long long>(mic.blocks));
    out += buf;
  }
  for (const HealthAlert& alert : alerts_) {
    const bool recovery = alert.rule == kHealthNoRule;
    std::snprintf(
        buf, sizeof(buf), "  t=%9.4fs  %-17s %-20s %s->%s value=%.6g\n",
        alert.time_s, mic_names_[alert.mic].c_str(),
        recovery ? "recovered" : slos_[alert.rule].name.c_str(),
        std::string(health_state_name(alert.from)).c_str(),
        std::string(health_state_name(alert.to)).c_str(), alert.value);
    out += buf;
  }
  return out;
}

std::string Health::to_prometheus() const {
  const std::vector<MicReport> mics = report().mics;
  std::vector<PromLabels> mic(mics.size());
  for (std::size_t i = 0; i < mic.size(); ++i) {
    mic[i].add("mic", mic_names_[i]);
  }
  std::string out;
  PromWriter prom(out);
  prom.family("mdn_health_component_state", "gauge", mic,
              [&](std::size_t i) { return static_cast<int>(mics[i].state); });
  prom.family("mdn_health_noise_floor", "gauge", mic,
              [&](std::size_t i) { return mics[i].noise_floor; });
  prom.family("mdn_health_min_snr_db", "gauge", mic,
              [&](std::size_t i) { return mics[i].min_snr_db; });
  prom.family("mdn_health_snr_db", "gauge");
  for (std::size_t i = 0; i < mic.size(); ++i) {
    for (std::size_t w = 0; w < config_.watch_count; ++w) {
      const double snr = estimators_[i]->snr_db(w);
      if (std::isnan(snr)) continue;  // never-heard watches stay silent
      prom.sample(snr, PromLabels(mic[i]).add("watch", w));
    }
  }
  prom.family("mdn_health_onset_rate_hz", "gauge", mic,
              [&](std::size_t i) { return mics[i].onset_rate_hz; });
  prom.family("mdn_health_silence_seconds", "gauge", mic,
              [&](std::size_t i) { return mics[i].silence_s; });
  prom.family("mdn_health_drops_total", "counter", mic,
              [&](std::size_t i) { return mics[i].drops; });
  prom.family("mdn_health_alerts_total", "counter");
  for (std::size_t i = 0; i < mic.size(); ++i) {
    // Per-severity split of this mic's drained alerts.
    std::uint64_t by_state[3] = {0, 0, 0};
    for (const HealthAlert& alert : alerts_) {
      if (alert.mic == i) ++by_state[static_cast<int>(alert.to)];
    }
    for (int s = 0; s < 3; ++s) {
      prom.sample(by_state[s],
                  PromLabels(mic[i]).add(
                      "severity",
                      health_state_name(static_cast<HealthState>(s))));
    }
  }
  return out;
}

std::string Health::to_health_jsonl() const {
  // Content order, not drain order: poll() interleaves microphones by
  // how far their workers had advanced, which varies with scheduling.
  std::vector<HealthAlert> sorted = alerts_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const HealthAlert& a, const HealthAlert& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     if (a.mic != b.mic) return a.mic < b.mic;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     if (a.from != b.from) return a.from < b.from;
                     return a.to < b.to;
                   });
  std::string out;
  out.reserve(sorted.size() * 160);
  for (const HealthAlert& alert : sorted) {
    const bool recovery = alert.rule == kHealthNoRule;
    out += "{\"time_s\":";
    append_number(out, alert.time_s);
    out += ",\"mic\":" + std::to_string(alert.mic);
    out += ",\"mic_name\":\"" + json_escape(mic_names_[alert.mic]) + "\"";
    out += ",\"rule\":\"";
    out += recovery ? "recovered" : json_escape(slos_[alert.rule].name);
    out += "\",\"metric\":\"";
    out += recovery ? std::string_view("none")
                    : slo_metric_name(slos_[alert.rule].metric);
    out += "\",\"from\":\"";
    out += health_state_name(alert.from);
    out += "\",\"to\":\"";
    out += health_state_name(alert.to);
    out += "\",\"value\":";
    append_number(out, alert.value);
    out += "}\n";
  }
  return out;
}

}  // namespace mdn::obs
