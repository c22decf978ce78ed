#include "mdn/fleet.h"

#include <algorithm>
#include <string>

namespace mdn::core {

Fleet::Fleet(net::EventLoop& loop, const FleetConfig& config)
    : loop_(loop), config_(config) {
  rooms_.resize(config_.rooms);
  for (std::size_t r = 0; r < config_.rooms; ++r) {
    Room& room = rooms_[r];
    room.channel =
        std::make_unique<audio::AcousticChannel>(config_.sample_rate);
    room.plan = std::make_unique<FrequencyPlan>(config_.band);

    MdnController::Config ccfg;
    ccfg.detector.sample_rate = config_.sample_rate;
    ccfg.detector.min_amplitude = config_.detector_min_amplitude;
    // Inline mode: sink_mic doubles as the journal mic id, giving each
    // room's detections (and, via set_journal_mic below, its emissions)
    // a distinct scoreboard row.
    ccfg.sink_mic = static_cast<std::uint32_t>(r);
    room.controller =
        std::make_unique<MdnController>(loop_, *room.channel, ccfg);

    room.switches.reserve(config_.switches_per_room);
    for (std::size_t s = 0; s < config_.switches_per_room; ++s) {
      const std::string name = std::string("r")
                                   .append(std::to_string(r))
                                   .append("s")
                                   .append(std::to_string(s));
      SwitchUnit unit;
      unit.sw = std::make_unique<net::Switch>(loop_, name);
      unit.hh_device = room.plan->add_device(name + "-hh", config_.hh_bins);
      unit.ps_device = room.plan->add_device(name + "-ps", config_.ps_bins);
      const auto spk = room.channel->add_source(name + "-speaker",
                                                config_.speaker_distance_m);
      unit.bridge = std::make_unique<mp::PiSpeakerBridge>(
          loop_, *room.channel, spk, mp::kPiProcessingDelay, &tone_bank_);
      unit.bridge->set_journal_mic(static_cast<std::uint32_t>(r));
      unit.hh_emitter = std::make_unique<mp::MpEmitter>(
          loop_, *unit.bridge, config_.emitter_min_gap);
      unit.ps_emitter = std::make_unique<mp::MpEmitter>(
          loop_, *unit.bridge, config_.emitter_min_gap);
      unit.hh_reporter = std::make_unique<HeavyHitterReporter>(
          *unit.sw, *unit.hh_emitter, *room.plan, unit.hh_device,
          config_.hh);
      unit.ps_reporter = std::make_unique<PortScanReporter>(
          *unit.sw, *unit.ps_emitter, *room.plan, unit.ps_device,
          config_.ps);
      unit.hh_detector = std::make_unique<HeavyHitterDetector>(
          *room.controller, *room.plan, unit.hh_device, config_.hh);
      unit.ps_detector = std::make_unique<PortScanDetector>(
          *room.controller, *room.plan, unit.ps_device, config_.ps);
      unit.hh_packets.assign(config_.hh_bins, 0);
      room.switches.push_back(std::move(unit));
      // Workload-side ground truth: count packets per heavy-hitter bin
      // at the same hook level the reporter keys tones from.  Registered
      // after the unit reaches its final slot so the captured addresses
      // survive (vector is reserved; elements never move again).
      SwitchUnit& placed = room.switches.back();
      auto* reporter = placed.hh_reporter.get();
      auto* counts = &placed.hh_packets;
      placed.sw->add_packet_hook(
          [reporter, counts](const net::Packet& pkt, std::size_t) {
            ++(*counts)[reporter->bin_for(pkt.flow)];
          });
    }
  }
}

void Fleet::start() {
  for (Room& room : rooms_) room.controller->start();
}

void Fleet::stop_at(net::SimTime t) {
  loop_.schedule_at(t, [this]() {
    for (Room& room : rooms_) room.controller->stop();
  });
}

std::size_t Fleet::switch_count() const noexcept {
  return rooms_.size() * config_.switches_per_room;
}

net::Switch& Fleet::switch_at(std::size_t global) {
  return *unit_at(global).sw;
}

std::size_t Fleet::room_of(std::size_t global) const noexcept {
  return global / config_.switches_per_room;
}

Fleet::SwitchUnit& Fleet::unit_at(std::size_t global) {
  return rooms_.at(global / config_.switches_per_room)
      .switches.at(global % config_.switches_per_room);
}

std::size_t Fleet::watched_tone_count() const noexcept {
  return rooms_.size() * config_.switches_per_room *
         (config_.hh_bins + config_.ps_bins);
}

std::vector<double> Fleet::watch_hz() const {
  std::vector<double> all;
  for (const Room& room : rooms_) {
    for (const SwitchUnit& unit : room.switches) {
      const auto hh = room.plan->frequencies(unit.hh_device);
      const auto ps = room.plan->frequencies(unit.ps_device);
      all.insert(all.end(), hh.begin(), hh.end());
      all.insert(all.end(), ps.begin(), ps.end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::uint64_t Fleet::hh_alert_count() const noexcept {
  std::uint64_t n = 0;
  for (const Room& room : rooms_) {
    for (const SwitchUnit& unit : room.switches) {
      n += unit.hh_detector->alerts().size();
    }
  }
  return n;
}

std::uint64_t Fleet::ps_alert_count() const noexcept {
  std::uint64_t n = 0;
  for (const Room& room : rooms_) {
    for (const SwitchUnit& unit : room.switches) {
      n += unit.ps_detector->alerts().size();
    }
  }
  return n;
}

std::uint64_t Fleet::onsets_heard() const noexcept {
  std::uint64_t n = 0;
  for (const Room& room : rooms_) {
    n += room.controller->event_log().size();
  }
  return n;
}

}  // namespace mdn::core
