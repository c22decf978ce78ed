// Music-defined traffic engineering (§6, Fig 5).
//
// QueueToneReporter is the switch side of both §6 use cases: every 300 ms
// (the paper samples queue length with `tc` at that period) it reads a
// port's backlog and plays one of three tones —
//     backlog < low   -> tone 0   (paper: 500 Hz)
//     low..high       -> tone 1   (600 Hz)
//     backlog > high  -> tone 2   (700 Hz, "congested")
//
// LoadBalancerApp is the controller side of the load-balancing use case:
// on first hearing a switch's congested tone it sends a Flow-MOD that
// splits traffic across the two rhombus paths.  QueueMonitorApp merely
// records band transitions (the congestion-monitoring use case).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "mdn/controller.h"
#include "mdn/frequency_plan.h"
#include "mp/bridge.h"
#include "net/switch.h"
#include "sdn/controller.h"

namespace mdn::core {

struct QueueToneConfig {
  std::size_t port_index = 0;        ///< which egress queue to watch
  std::size_t low_threshold = 25;    ///< packets (paper values)
  std::size_t high_threshold = 75;
  net::SimTime period = 300 * net::kMillisecond;
  double tone_duration_s = 0.05;
  double intensity_db_spl = 70.0;
};

class QueueToneReporter {
 public:
  /// `device` must own >= 3 symbols in `plan` (one per band).
  QueueToneReporter(net::Switch& sw, mp::MpEmitter& emitter,
                    const FrequencyPlan& plan, DeviceId device,
                    QueueToneConfig config);

  void start();
  void stop() noexcept { running_ = false; }

  /// Band for a backlog value: 0 below low, 1 between, 2 above high.
  std::size_t band_for(std::size_t backlog) const noexcept;
  double frequency_for_band(std::size_t band) const;

  /// (time, backlog) samples — the raw series behind Fig 5a/5c.
  struct Sample {
    double time_s;
    std::size_t backlog;
    std::size_t band;
  };
  const std::vector<Sample>& samples() const noexcept { return samples_; }

 private:
  bool tick();

  net::Switch& switch_;
  mp::MpEmitter& emitter_;
  const FrequencyPlan& plan_;
  DeviceId device_;
  QueueToneConfig config_;
  std::vector<Sample> samples_;
  bool running_ = false;
  bool series_pending_ = false;  // a tick series is scheduled
};

struct LoadBalancerConfig {
  /// Ports of the entry switch across which traffic is split on alert.
  std::vector<std::size_t> split_ports;
  int flow_mod_priority = 50;
};

class LoadBalancerApp {
 public:
  /// Listens for band-2 (congested) tones of `device` and, on the first
  /// one, installs a select-group Flow-MOD splitting traffic across
  /// `config.split_ports` on the entry switch.
  LoadBalancerApp(MdnController& controller, sdn::ControlChannel& channel,
                  sdn::DatapathId entry_dpid, const FrequencyPlan& plan,
                  DeviceId device, LoadBalancerConfig config);

  bool balanced() const noexcept { return balanced_; }
  double balanced_at_s() const noexcept { return balanced_at_s_; }
  void on_balance(std::function<void()> cb) { callback_ = std::move(cb); }

  /// Journal id of the split-group kFlowMod (0 = journal disabled or
  /// not yet balanced).
  obs::CauseId flow_mod_action() const noexcept { return flow_mod_action_; }

 private:
  void balance(obs::CauseId cause);

  sdn::ControlChannel& channel_;
  sdn::DatapathId dpid_;
  LoadBalancerConfig config_;
  bool balanced_ = false;
  double balanced_at_s_ = -1.0;
  obs::CauseId flow_mod_action_ = 0;
  std::function<void()> callback_;
};

/// Congestion-monitoring listener (§6 second use case): records every
/// queue-band tone it hears, giving the controller a live view of the
/// queue-length range without any in-band message.
class QueueMonitorApp {
 public:
  struct BandEvent {
    double time_s;
    std::size_t band;
    double frequency_hz;
    std::uint64_t cause = 0;  ///< detection journal id (0 = disabled)
  };

  QueueMonitorApp(MdnController& controller, const FrequencyPlan& plan,
                  DeviceId device);

  const std::vector<BandEvent>& events() const noexcept { return events_; }
  /// Most recent band heard (or SIZE_MAX before any tone).
  std::size_t current_band() const noexcept { return current_band_; }

 private:
  std::vector<BandEvent> events_;
  std::size_t current_band_ = static_cast<std::size_t>(-1);
};

}  // namespace mdn::core
