// Heavy-traffic workload engine: millions of flows, Zipf + churn.
//
// The paper's §5 scenarios drive one switch with a handful of hand-wired
// flows; serving a fleet needs the knob set of a real traffic harness
// (synapse-klee bdd-analyzer: total flows, churn in flows-per-minute,
// Zipf skew, aggregate packet rate).  TrafficGen synthesises that
// workload deterministically from one seed and feeds it to a set of
// target switches as *batched* packet-arrival events: one event-loop
// callback per batch interval delivers every packet due in that window
// directly into Switch::receive, so the discrete-event loop schedules
// O(batches) events instead of O(packets) and a 64K-flow run does not
// drown the scheduler.
//
// Flows shard to targets by flow_hash_jenkins (the second, independent
// hash family) so one flow consistently hits one switch — the invariant
// the §5 heavy-hitter attribution needs.  Optional port-scan overlays
// sweep sequential destination ports at chosen targets, providing the
// ground truth for fleet-scale scan detection.
//
// Determinism contract: the only randomness is an explicit
// std::mt19937_64 seeded from the config (no rand(), no wall clock, no
// implementation-defined <random> distributions); identical seeds yield
// byte-identical packet traces, checkable via trace_digest() /
// trace_text().
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/event_loop.h"
#include "net/flow_table.h"
#include "net/switch.h"

namespace mdn::net {

struct TrafficGenConfig {
  FlowPopulationConfig population;
  /// Aggregate packet rate across all flows (ARG_TOTAL_RATE_PPS).
  double rate_pps = 100000.0;
  /// Flow churn: live flows replaced per minute (ARG_TOTAL_CHURN_FPM).
  double churn_fpm = 0.0;
  std::uint32_t packet_size = 64;  ///< MIN_PKT_SIZE of the DPDK harness
  SimTime start = 0;
  SimTime stop = 10 * kSecond;
  /// Packet arrivals are quantised to this batch window; one event-loop
  /// event per window delivers all due packets.
  SimTime batch_interval = 5 * kMillisecond;
  std::uint64_t seed = 1;

  /// Port-scan overlays: `scan_count` scanners, each pinned to one
  /// deterministic target, sweeping sequential destination ports.
  std::size_t scan_count = 0;
  double scan_pps = 20.0;             ///< per scanner
  std::uint16_t scan_first_port = 7000;
  std::uint32_t scan_src_ip_base = 0xac100042;  // 172.16.0.66

  /// Keep the full human-readable packet trace (one line per packet).
  /// Off by default: the rolling trace_digest() is always maintained and
  /// is what benches compare; the text form is for golden-trace tests.
  bool record_trace = false;
};

class TrafficGen {
 public:
  TrafficGen(EventLoop& loop, const TrafficGenConfig& config);

  /// Registers a target switch; packets enter at `in_port`.  All targets
  /// must be added before start().
  void add_target(Switch& sw, std::size_t in_port = 0);
  std::size_t target_count() const noexcept { return targets_.size(); }

  /// Schedules the batch chain.  Throws std::logic_error when no target
  /// has been added (every packet would be sharded modulo zero).
  void start();

  /// Stable shard of `flow` (index into the targets), via the Jenkins
  /// hash family so it is independent of the heavy-hitter bin hash.
  std::size_t target_of(const FlowKey& flow) const;

  /// Target index of scanner `i` (valid after start()).
  const std::vector<std::size_t>& scan_targets() const noexcept {
    return scan_targets_;
  }

  const FlowPopulation& population() const noexcept { return population_; }
  const TrafficGenConfig& config() const noexcept { return config_; }

  std::uint64_t packets() const noexcept { return packets_; }
  std::uint64_t scan_packets() const noexcept { return scan_packets_; }
  std::uint64_t batches() const noexcept { return batches_; }
  std::uint64_t churn_events() const noexcept { return churned_; }

  /// FNV-1a digest over the full packet stream (sim time, 5-tuple,
  /// target).  Two runs with the same seed and config must agree.
  std::uint64_t trace_digest() const noexcept { return digest_; }
  /// One line per packet when config.record_trace is set.
  const std::string& trace_text() const noexcept { return trace_; }

 private:
  struct Target {
    Switch* sw = nullptr;
    std::size_t in_port = 0;
  };
  struct Scanner {
    std::size_t target = 0;
    std::uint32_t src_ip = 0;
    std::uint16_t next_port = 0;
    double accum = 0.0;
  };

  void run_batch(SimTime until);
  void deliver(const FlowKey& flow, std::size_t target);
  void note(const FlowKey& flow, std::size_t target);

  EventLoop& loop_;
  TrafficGenConfig config_;
  FlowPopulation population_;
  std::mt19937_64 rng_;
  std::vector<Target> targets_;
  std::vector<Scanner> scanners_;
  // Scan packets due in the current window (batch position, flow,
  // target), reused across batches so the steady-state batch path stops
  // allocating once warm.
  std::vector<std::pair<std::uint64_t, std::pair<FlowKey, std::size_t>>>
      scan_batch_;
  std::vector<std::size_t> scan_targets_;
  SimTime window_start_ = 0;  ///< end of the last processed batch window
  double packet_accum_ = 0.0;
  double churn_accum_ = 0.0;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t packets_ = 0;
  std::uint64_t scan_packets_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t churned_ = 0;
  std::uint64_t digest_;
  std::string trace_;
  // Process-wide instruments under "net/trafficgen/*" (aggregated
  // across generators, like the loop's counters).
  obs::Counter* packets_counter_;
  obs::Counter* scan_counter_;
  obs::Counter* churn_counter_;
  obs::Counter* batches_counter_;
  obs::Gauge* flows_live_;
};

}  // namespace mdn::net
