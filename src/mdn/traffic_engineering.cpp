#include "mdn/traffic_engineering.h"

#include <stdexcept>

namespace mdn::core {

QueueToneReporter::QueueToneReporter(net::Switch& sw, mp::MpEmitter& emitter,
                                     const FrequencyPlan& plan,
                                     DeviceId device, QueueToneConfig config)
    : switch_(sw),
      emitter_(emitter),
      plan_(plan),
      device_(device),
      config_(config) {
  if (plan.symbol_count(device) < 3) {
    throw std::invalid_argument(
        "QueueToneReporter: device needs 3 plan symbols");
  }
  if (config_.low_threshold >= config_.high_threshold) {
    throw std::invalid_argument("QueueToneReporter: thresholds");
  }
}

std::size_t QueueToneReporter::band_for(std::size_t backlog) const noexcept {
  if (backlog < config_.low_threshold) return 0;
  if (backlog <= config_.high_threshold) return 1;
  return 2;
}

double QueueToneReporter::frequency_for_band(std::size_t band) const {
  return plan_.frequency(device_, band);
}

void QueueToneReporter::start() {
  if (running_) return;
  running_ = true;
  // A series not yet fired since stop() resumes on its own phase.
  if (series_pending_) return;
  series_pending_ = true;
  switch_.loop().schedule_periodic(config_.period, config_.period, [this] {
    series_pending_ = tick();
    return series_pending_;
  });
}

bool QueueToneReporter::tick() {
  if (!running_) return false;
  const std::size_t backlog = switch_.port(config_.port_index).backlog();
  const std::size_t band = band_for(backlog);
  samples_.push_back(
      {net::to_seconds(switch_.loop().now()), backlog, band});
  emitter_.emit(frequency_for_band(band), config_.tone_duration_s,
                config_.intensity_db_spl);
  return running_;
}

LoadBalancerApp::LoadBalancerApp(MdnController& controller,
                                 sdn::ControlChannel& channel,
                                 sdn::DatapathId entry_dpid,
                                 const FrequencyPlan& plan, DeviceId device,
                                 LoadBalancerConfig config)
    : channel_(channel), dpid_(entry_dpid), config_(std::move(config)) {
  if (config_.split_ports.size() < 2) {
    throw std::invalid_argument("LoadBalancerApp: need >= 2 split ports");
  }
  // Band 2 == congested tone.
  controller.watch(plan.frequency(device, 2), [this](const ToneEvent& ev) {
    if (!balanced_) {
      balanced_at_s_ = ev.time_s;
      balance(ev.cause);
    }
  });
}

void LoadBalancerApp::balance(obs::CauseId cause) {
  balanced_ = true;
  net::FlowEntry entry;
  entry.priority = config_.flow_mod_priority;
  entry.match = net::Match::any();
  entry.actions = {net::Action::group(config_.split_ports)};
  flow_mod_action_ =
      channel_.send_flow_mod(dpid_, sdn::FlowMod::add(entry), cause);
  if (callback_) callback_();
}

QueueMonitorApp::QueueMonitorApp(MdnController& controller,
                                 const FrequencyPlan& plan,
                                 DeviceId device) {
  for (std::size_t band = 0; band < 3; ++band) {
    const double f = plan.frequency(device, band);
    controller.watch(f, [this, band, f](const ToneEvent& ev) {
      events_.push_back({ev.time_s, band, f, ev.cause});
      current_band_ = band;
    });
  }
}

}  // namespace mdn::core
