#include "mdn/heavy_hitter.h"

#include "obs/journal.h"

namespace mdn::core {

HeavyHitterReporter::HeavyHitterReporter(net::Switch& sw,
                                         mp::MpEmitter& emitter,
                                         const FrequencyPlan& plan,
                                         DeviceId device,
                                         HeavyHitterConfig config)
    : emitter_(emitter), plan_(plan), device_(device), config_(config) {
  sw.add_packet_hook([this](const net::Packet& pkt, std::size_t) {
    emitter_.emit(frequency_for(pkt.flow), config_.tone_duration_s,
                  config_.intensity_db_spl);
  });
}

std::size_t HeavyHitterReporter::bin_for(const net::FlowKey& flow) const {
  return static_cast<std::size_t>(net::flow_hash(flow) %
                                  plan_.symbol_count(device_));
}

double HeavyHitterReporter::frequency_for(const net::FlowKey& flow) const {
  return plan_.frequency(device_, bin_for(flow));
}

HeavyHitterDetector::HeavyHitterDetector(MdnController& controller,
                                         const FrequencyPlan& plan,
                                         DeviceId device,
                                         HeavyHitterConfig config)
    : loop_(controller.loop()),
      plan_(plan),
      device_(device),
      config_(config),
      window_(plan.symbol_count(device)),
      totals_(plan.symbol_count(device), 0),
      alerted_(plan.symbol_count(device), false) {
  for (std::size_t bin = 0; bin < window_.size(); ++bin) {
    controller.watch(plan_.frequency(device_, bin),
                     [this, bin](const ToneEvent& ev) { on_event(bin, ev); });
  }
}

void HeavyHitterDetector::expire(std::size_t bin, double now_s) const {
  auto& w = window_[bin];
  while (!w.empty() && now_s - w.front() > config_.window_s) w.pop_front();
}

void HeavyHitterDetector::on_event(std::size_t bin, const ToneEvent& event) {
  expire(bin, event.time_s);
  window_[bin].push_back(event.time_s);
  ++totals_[bin];

  const std::size_t count = window_[bin].size();
  if (count >= config_.threshold) {
    if (!alerted_[bin]) {
      alerted_[bin] = true;
      Alert alert{bin, plan_.frequency(device_, bin), event.time_s, count};
      obs::Journal& journal = obs::Journal::global();
      if (journal.enabled()) {
        // The alert's cause is the onset that pushed the window over the
        // threshold; the earlier onsets are context, not causes.  Stamped
        // when the controller hears it (block end), not at the block
        // start in event.time_s, so it never precedes its detection.
        obs::JournalRecord rec;
        rec.kind = obs::JournalKind::kAppAction;
        rec.cause = event.cause;
        rec.sim_ns = loop_.now();
        rec.frequency_hz = alert.frequency_hz;
        rec.value = static_cast<double>(count);
        rec.aux = bin;
        obs::set_journal_label(rec, "hh_alert");
        alert.cause = journal.append(rec);
      }
      alerts_.push_back(alert);
      if (handler_) handler_(alert);
    }
  } else {
    alerted_[bin] = false;
  }
}

std::size_t HeavyHitterDetector::window_count(std::size_t bin) const {
  return window_.at(bin).size();
}

}  // namespace mdn::core
