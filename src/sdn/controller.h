// Control channel and controller base class.
//
// A ControlChannel joins an SDN controller to its switches with a
// configurable control-plane latency, mirroring the OpenFlow TCP session
// of a real deployment.  Music-Defined Networking's point is that the MDN
// controller can *also* receive state out-of-band (through sound) and only
// uses this channel for actuation — or not at all.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/switch.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "sdn/messages.h"

namespace mdn::sdn {

class Controller;

class ControlChannel {
 public:
  explicit ControlChannel(net::EventLoop& loop,
                          net::SimTime latency = net::kMillisecond);

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Attaches a switch; table misses are delivered to `controller` as
  /// PacketIn after the channel latency.  Returns the datapath id.
  DatapathId attach(net::Switch& sw, Controller& controller);

  /// Applies a FlowMod on the switch after the channel latency.  `cause`
  /// is the journal id of whatever triggered the mod (an FSM transition,
  /// an app action; 0 = unattributed).  Returns the id of the minted
  /// kFlowMod journal record — the terminal link of a provenance chain,
  /// what Journal::explain() starts from — or 0 when the journal is
  /// disabled or the management session is down.
  obs::CauseId send_flow_mod(DatapathId dpid, FlowMod mod,
                             obs::CauseId cause = 0);

  /// Injects a packet at the switch after the channel latency, applying
  /// the given action (OpenFlow packet-out).
  void send_packet_out(DatapathId dpid, PacketOut out);

  /// Immediate port statistics snapshot (stats request/reply collapsed;
  /// the latency of a real round trip does not affect any experiment).
  /// Throws std::runtime_error when the management session is down.
  std::vector<PortStats> query_port_stats(DatapathId dpid) const;

  /// Non-throwing variant: nullopt while the session is down.
  std::optional<std::vector<PortStats>> try_query_port_stats(
      DatapathId dpid) const;

  /// Models in-band management: when the data plane carrying the
  /// OpenFlow session fails, FlowMods, PacketIns and stats all fail too.
  /// (The whole point of Music-Defined Networking is that tones keep
  /// working through exactly this failure.)
  void set_session_up(DatapathId dpid, bool up);
  bool session_up(DatapathId dpid) const;
  std::uint64_t failed_sends() const noexcept { return failed_sends_; }

  net::Switch& switch_for(DatapathId dpid);
  const net::Switch& switch_for(DatapathId dpid) const;

  net::SimTime latency() const noexcept { return latency_; }
  net::EventLoop& loop() noexcept { return loop_; }
  std::uint64_t flow_mods_sent() const noexcept { return flow_mods_sent_; }
  std::uint64_t packet_ins_delivered() const noexcept {
    return packet_ins_delivered_;
  }

 private:
  void apply_flow_mod(net::Switch& sw, const FlowMod& mod);
  void apply_packet_out(net::Switch& sw, PacketOut out);

  net::EventLoop& loop_;
  net::SimTime latency_;
  std::vector<net::Switch*> switches_;  // index == dpid
  std::vector<bool> session_up_;        // parallel to switches_
  std::uint64_t flow_mods_sent_ = 0;
  std::uint64_t packet_ins_delivered_ = 0;
  mutable std::uint64_t failed_sends_ = 0;
  // Registry mirrors under "sdn/controller/...".
  obs::Counter* flow_mod_counter_;
  obs::Counter* packet_in_counter_;
  obs::Counter* failed_send_counter_;
};

/// In-band congestion-monitoring baseline (what MDN replaces): polls a
/// switch port's queue backlog over the OpenFlow session every `period`
/// and reports the first time the backlog exceeds a threshold.  Blind
/// while the management session is down.
class PollingQueueMonitor {
 public:
  PollingQueueMonitor(ControlChannel& channel, DatapathId dpid,
                      std::size_t port_index, std::size_t threshold,
                      net::SimTime period = 300 * net::kMillisecond);

  void start();
  void stop() noexcept { running_ = false; }

  bool congestion_seen() const noexcept { return congestion_seen_; }
  double congestion_seen_at_s() const noexcept { return seen_at_s_; }
  std::uint64_t polls() const noexcept { return polls_; }
  std::uint64_t failed_polls() const noexcept { return failed_polls_; }

 private:
  bool tick();

  ControlChannel& channel_;
  DatapathId dpid_;
  std::size_t port_index_;
  std::size_t threshold_;
  net::SimTime period_;
  bool running_ = false;
  bool series_pending_ = false;  // a tick series is scheduled
  bool congestion_seen_ = false;
  double seen_at_s_ = -1.0;
  std::uint64_t polls_ = 0;
  std::uint64_t failed_polls_ = 0;
};

class Controller {
 public:
  virtual ~Controller() = default;

  virtual void on_switch_attached(DatapathId /*dpid*/,
                                  net::Switch& /*sw*/) {}
  virtual void on_packet_in(DatapathId /*dpid*/, const PacketIn& /*msg*/) {}
};

/// Reference reactive controller: learns source addresses per switch and
/// installs destination-based forwarding entries, flooding unknowns.
/// Used by tests as the baseline "in-band" control plane.
class LearningController : public Controller {
 public:
  explicit LearningController(ControlChannel& channel)
      : channel_(channel) {}

  void on_packet_in(DatapathId dpid, const PacketIn& msg) override;

  std::uint64_t installs() const noexcept { return installs_; }
  std::uint64_t floods() const noexcept { return floods_; }

 private:
  ControlChannel& channel_;
  // dpid -> (ip -> port) learned locations.
  std::unordered_map<DatapathId,
                     std::unordered_map<std::uint32_t, std::size_t>>
      location_;
  std::uint64_t installs_ = 0;
  std::uint64_t floods_ = 0;
};

}  // namespace mdn::sdn
