// Fleet-scale deployment harness: rooms of switches under one workload.
//
// The paper's testbed is one rack, one microphone (§3); the ROADMAP
// north-star is serving heavy traffic at fleet scale.  Fleet builds that
// scale-out inside the simulator: R machine rooms, each an independent
// AcousticChannel with its own microphone/listening controller, each
// holding S switches.  Every switch gets the full §5 acoustic stack — a
// speaker (PiSpeakerBridge, journal-scoped to its room's mic, drawing
// its tones from the one ToneBank the fleet shares), two
// rate-policed MpEmitters, a HeavyHitterReporter keyed by flow-hash bin
// and a PortScanReporter keyed by destination port — plus the
// controller-side HeavyHitterDetector / PortScanDetector subscribed to
// the room's frequency plan.  Rooms reuse the same frequency values
// (separate air gaps), disambiguated in the obs::Scoreboard by the
// mic-scoped emissions, so a fleet of 100+ switches watches thousands of
// (mic, watch) tone cells within the paper's ~875-slot audible band.
//
// Switches are traffic sinks: packets enter through Switch::receive
// (TrafficGen targets), run the per-packet tone hooks and die on table
// miss — no downstream link events, so fleet packet load scales with the
// workload engine's batch events rather than per-hop scheduling.
//
// The rooms listen on one hop series owned by the fleet.  Each hop runs
// every listening room's MdnController::capture() on the fleet's
// fork-join pool — rooms are separate air gaps, so their blocks record
// and detect side by side — joins, then runs publish() for the rooms in
// order on the loop thread.  Every journal record, onset and alert keeps
// the value and order of a serial run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "audio/channel.h"
#include "common/fork_join.h"
#include "mdn/controller.h"
#include "mdn/frequency_plan.h"
#include "mdn/heavy_hitter.h"
#include "mdn/port_scan.h"
#include "mp/bridge.h"
#include "mp/tone_bank.h"
#include "net/event_loop.h"
#include "net/switch.h"

namespace mdn::core {

struct FleetConfig {
  std::size_t rooms = 4;
  std::size_t switches_per_room = 4;
  /// Heavy-hitter flow-hash bins per switch (device symbols).
  std::size_t hh_bins = 16;
  /// Port-scan symbols per switch.  Keep distinct_threshold above the
  /// workload's background dst-port set size so only a real sweep trips.
  std::size_t ps_bins = 16;
  double sample_rate = 24000.0;  ///< per-room channel (fleet tones < 9 kHz)
  FrequencyPlanConfig band;      ///< per-room plan (identical across rooms)
  net::SimTime emitter_min_gap = 100 * net::kMillisecond;
  double speaker_distance_m = 0.5;
  HeavyHitterConfig hh;
  PortScanConfig ps;
  double detector_min_amplitude = 0.05;
};

class Fleet {
 public:
  struct SwitchUnit {
    std::unique_ptr<net::Switch> sw;
    std::unique_ptr<mp::PiSpeakerBridge> bridge;
    std::unique_ptr<mp::MpEmitter> hh_emitter;
    std::unique_ptr<mp::MpEmitter> ps_emitter;
    std::unique_ptr<HeavyHitterReporter> hh_reporter;
    std::unique_ptr<PortScanReporter> ps_reporter;
    std::unique_ptr<HeavyHitterDetector> hh_detector;
    std::unique_ptr<PortScanDetector> ps_detector;
    DeviceId hh_device = 0;
    DeviceId ps_device = 0;
  };

  struct Room {
    std::unique_ptr<audio::AcousticChannel> channel;
    std::unique_ptr<FrequencyPlan> plan;
    std::unique_ptr<MdnController> controller;
    std::vector<SwitchUnit> switches;
  };

  Fleet(net::EventLoop& loop, const FleetConfig& config);

  /// Starts every room's listening controller on the fleet's hop series.
  /// The first call also starts the capture pool: min(rooms, hardware
  /// threads) threads counting the loop thread, each with its detector
  /// scratch warmed, published as the gauge "mdn/fleet/capture_threads".
  /// A second call runs no second series.
  void start();
  /// Schedules every controller to stop at `t`, which ends the hop series
  /// (so the loop can drain).
  void stop_at(net::SimTime t);

  std::size_t room_count() const noexcept { return rooms_.size(); }
  const Room& room(std::size_t r) const { return rooms_.at(r); }
  Room& room(std::size_t r) { return rooms_.at(r); }

  /// Flattened switch view (global index = room * switches_per_room +
  /// position): the TrafficGen target list.
  std::size_t switch_count() const noexcept;
  net::Switch& switch_at(std::size_t global);
  std::size_t room_of(std::size_t global) const noexcept;
  SwitchUnit& unit_at(std::size_t global);

  /// Total (mic, watch) tone cells under observation: every room's
  /// controller watch list, one cell per room frequency.
  std::size_t watched_tone_count() const noexcept;

  /// Union of watched frequencies across rooms (sorted, deduplicated) —
  /// the ScoreboardConfig watch list.
  std::vector<double> watch_hz() const;

  std::uint64_t hh_alert_count() const noexcept;
  std::uint64_t ps_alert_count() const noexcept;
  std::uint64_t onsets_heard() const noexcept;

  const FleetConfig& config() const noexcept { return config_; }

 private:
  /// One hop: capture the listening rooms in parallel, then publish them
  /// in room order.  False (no room listening) ends the series.
  bool hop();

  net::EventLoop& loop_;
  FleetConfig config_;
  /// Every bridge's tones: each distinct tone is synthesised once per
  /// fleet.  Declared before rooms_ so it outlives the bridges.
  mp::ToneBank tone_bank_;
  std::vector<Room> rooms_;
  /// Rooms listening this hop, in room order (reused across hops).
  std::vector<MdnController*> listening_;
  bool series_pending_ = false;  // the hop series is scheduled
  /// Declared after rooms_ so its workers stop before the rooms go.
  std::unique_ptr<common::ForkJoinPool> pool_;
};

}  // namespace mdn::core
