#include "mdn/fleet.h"

#include <algorithm>
#include <string>
#include <thread>

#include "obs/metrics.h"

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
    // The room index is the journal mic id, giving each room's
    // detections (and, via set_journal_mic below, its emissions) a
    // distinct scoreboard row.
    ccfg.mic = static_cast<std::uint32_t>(r);
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
      room.switches.push_back(std::move(unit));
    }
  }
}

void Fleet::start() {
  if (rooms_.empty()) return;
  for (Room& room : rooms_) {
    room.controller->start(MdnController::Clock::kExternal);
  }
  if (pool_ == nullptr) {
    const std::size_t threads = std::min<std::size_t>(
        rooms_.size(), std::max(1u, std::thread::hardware_concurrency()));
    pool_ = std::make_unique<common::ForkJoinPool>(threads, [this] {
      for (const Room& room : rooms_) room.controller->detector().warm_up();
    });
    obs::Registry::global()
        .gauge("mdn/fleet/capture_threads")
        .set(static_cast<std::int64_t>(pool_->size()));
  }
  // Like a controller's own series, one not yet fired since the rooms
  // stopped resumes on its phase instead of doubling the hops.
  if (series_pending_) return;
  series_pending_ = true;
  const net::SimTime period =
      net::from_seconds(rooms_.front().controller->config().hop_s);
  loop_.schedule_periodic(period, period, [this] {
    series_pending_ = hop();
    return series_pending_;
  });
}

bool Fleet::hop() {
  listening_.clear();
  for (Room& room : rooms_) {
    if (room.controller->running()) {
      listening_.push_back(room.controller.get());
    }
  }
  // Fork and join inside this one callback: the rooms capture side by
  // side, then publish in room order, so the loop still owns sim time
  // and every output keeps its serial order.
  const net::SimTime now = loop_.now();
  pool_->run(listening_.size(),
             [this, now](std::size_t i) { listening_[i]->capture(now); });
  for (MdnController* controller : listening_) {
    // A room an earlier room's handler stopped this hop is not heard.
    if (controller->running()) controller->publish();
  }
  return std::any_of(rooms_.begin(), rooms_.end(), [](const Room& room) {
    return room.controller->running();
  });
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
