// Music-defined heavy-hitter detection (§5, Fig 4a-b).
//
// Switch side: "we hash a flow tuple defined by source port, destination
// port, source IP, destination IP and protocol type and map it to a given
// frequency" — every forwarded packet keys the tone of its flow's bin
// (rate-policed so a fast flow produces a steady tone train rather than
// an unbounded pile-up).
//
// Controller side: a sliding window counts tone onsets per bin; a bin
// whose count exceeds the threshold is reported as a heavy hitter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mdn/controller.h"
#include "mdn/frequency_plan.h"
#include "mp/bridge.h"
#include "net/switch.h"

namespace mdn::core {

struct HeavyHitterConfig {
  double tone_duration_s = 0.03;  ///< paper's shortest feasible tone
  double intensity_db_spl = 70.0;
  double window_s = 2.0;          ///< sliding count window
  std::size_t threshold = 15;     ///< onsets per window to flag
};

/// Switch-side tone keying.
class HeavyHitterReporter {
 public:
  HeavyHitterReporter(net::Switch& sw, mp::MpEmitter& emitter,
                      const FrequencyPlan& plan, DeviceId device,
                      HeavyHitterConfig config);

  /// The plan frequency assigned to `flow`'s hash bin.
  double frequency_for(const net::FlowKey& flow) const;
  std::size_t bin_for(const net::FlowKey& flow) const;
  std::size_t bin_count() const noexcept {
    return plan_.symbol_count(device_);
  }

 private:
  mp::MpEmitter& emitter_;
  const FrequencyPlan& plan_;
  DeviceId device_;
  HeavyHitterConfig config_;
};

/// Controller-side sliding-window counter.
class HeavyHitterDetector {
 public:
  struct Alert {
    std::size_t bin = 0;
    double frequency_hz = 0.0;
    double time_s = 0.0;
    std::size_t count_in_window = 0;
    /// Journal id of the alert's kAppAction record, chained from the
    /// tone detection that crossed the threshold (0 = journal disabled).
    std::uint64_t cause = 0;
  };
  using AlertHandler = std::function<void(const Alert&)>;

  /// Subscribes to `controller` for every frequency of `device`.
  HeavyHitterDetector(MdnController& controller, const FrequencyPlan& plan,
                      DeviceId device, HeavyHitterConfig config);

  void on_alert(AlertHandler handler) { handler_ = std::move(handler); }

  /// Onsets currently inside the window for `bin`.
  std::size_t window_count(std::size_t bin) const;

  /// All alerts raised so far (one per bin per window crossing).
  const std::vector<Alert>& alerts() const noexcept { return alerts_; }

  /// Total onsets heard per bin since start.
  const std::vector<std::uint64_t>& totals() const noexcept {
    return totals_;
  }

 private:
  void on_event(std::size_t bin, const ToneEvent& event);
  void expire(std::size_t bin, double now_s) const;

  net::EventLoop& loop_;  // the controller's: stamps the alert record
  const FrequencyPlan& plan_;
  DeviceId device_;
  HeavyHitterConfig config_;
  mutable std::vector<std::deque<double>> window_;  // onset times per bin
  std::vector<std::uint64_t> totals_;
  std::vector<bool> alerted_;  // currently above threshold
  std::vector<Alert> alerts_;
  AlertHandler handler_;
};

}  // namespace mdn::core
