#include "net/traffic_gen.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace mdn::net {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

TrafficGen::TrafficGen(EventLoop& loop, const TrafficGenConfig& config)
    : loop_(loop),
      config_(config),
      population_(config.population),
      rng_(config.seed),
      digest_(kFnvOffset),
      packets_counter_(
          &obs::Registry::global().counter("net/trafficgen/packets")),
      scan_counter_(
          &obs::Registry::global().counter("net/trafficgen/scan_packets")),
      churn_counter_(
          &obs::Registry::global().counter("net/trafficgen/churn_events")),
      batches_counter_(
          &obs::Registry::global().counter("net/trafficgen/batches")),
      flows_live_(&obs::Registry::global().gauge("net/trafficgen/flows_live")) {
  flows_live_->set(static_cast<std::int64_t>(population_.size()));
}

void TrafficGen::add_target(Switch& sw, std::size_t in_port) {
  targets_.push_back(Target{&sw, in_port});
}

std::size_t TrafficGen::target_of(const FlowKey& flow) const {
  return flow_hash_jenkins(flow) % targets_.size();
}

void TrafficGen::start() {
  if (targets_.empty()) {
    throw std::logic_error("TrafficGen: start with no targets");
  }
  // Pin each scanner to a target and a source host.  The spread uses a
  // Weyl-style multiplicative step so scanners land on distinct switches
  // when there are at least as many targets as scanners — without
  // consuming RNG draws the background traffic would otherwise see.
  scanners_.clear();
  scan_targets_.clear();
  for (std::size_t i = 0; i < config_.scan_count; ++i) {
    Scanner sc;
    sc.target = (i * 2654435761ULL) % targets_.size();
    sc.src_ip = config_.scan_src_ip_base + static_cast<std::uint32_t>(i);
    sc.next_port = config_.scan_first_port;
    scanners_.push_back(sc);
    scan_targets_.push_back(sc.target);
  }
  const SimTime first = std::max(config_.start, loop_.now());
  window_start_ = first;
  loop_.schedule_at(std::min(first + config_.batch_interval, config_.stop),
                    [this, first]() {
                      run_batch(first + config_.batch_interval);
                    });
}

void TrafficGen::note(const FlowKey& flow, std::size_t target) {
  std::uint64_t h = digest_;
  h = fnv1a(h, static_cast<std::uint64_t>(loop_.now()));
  h = fnv1a(h, (static_cast<std::uint64_t>(flow.src_ip) << 32) | flow.dst_ip);
  h = fnv1a(h, (static_cast<std::uint64_t>(flow.src_port) << 32) |
                   (static_cast<std::uint64_t>(flow.dst_port) << 16) |
                   static_cast<std::uint64_t>(flow.proto));
  h = fnv1a(h, static_cast<std::uint64_t>(target));
  digest_ = h;
  if (config_.record_trace) {
    trace_ += std::to_string(loop_.now());
    trace_ += ' ';
    trace_ += std::to_string(target);
    trace_ += ' ';
    trace_ += flow.to_string();
    trace_ += '\n';
  }
}

void TrafficGen::deliver(const FlowKey& flow, std::size_t target) {
  note(flow, target);
  Packet pkt;
  pkt.flow = flow;
  pkt.size_bytes = config_.packet_size;
  pkt.id = next_packet_id_++;
  pkt.created_at = loop_.now();
  Target& t = targets_[target];
  t.sw->receive(std::move(pkt), t.in_port);
}

void TrafficGen::run_batch(SimTime until) {
  const SimTime window_end = std::min(until, config_.stop);
  const double dt_s = static_cast<double>(window_end - window_start_) /
                      static_cast<double>(kSecond);
  window_start_ = window_end;
  if (dt_s > 0.0) {
    // Churn first: flows that turned over during the window are the ones
    // the window's packets sample from.
    churn_accum_ += config_.churn_fpm * dt_s / 60.0;
    while (churn_accum_ >= 1.0) {
      churn_accum_ -= 1.0;
      population_.churn_one(rng_);
      ++churned_;
      churn_counter_->inc();
    }
    // Background packets due in this window, fractional remainder carried
    // so the long-run rate converges to rate_pps exactly.
    packet_accum_ += config_.rate_pps * dt_s;
    auto due = static_cast<std::uint64_t>(packet_accum_);
    packet_accum_ -= static_cast<double>(due);
    // Scanner overlays due this window: sequential port sweeps at the
    // pinned targets.  Each scan packet is placed at a seeded-random
    // position inside the batch, modelling real arrival mixing.
    // Delivering them all after the background would starve them of the
    // switches' rate-policed emitter slots: every packet in a batch
    // shares one sim time, so the first delivery at a switch claims the
    // freed tone slot — and that must be scanner-vs-background in
    // proportion to their rates, not always background.
    scan_batch_.clear();
    for (std::size_t si = 0; si < scanners_.size(); ++si) {
      Scanner& sc = scanners_[si];
      sc.accum += config_.scan_pps * dt_s;
      while (sc.accum >= 1.0) {
        sc.accum -= 1.0;
        FlowKey flow;
        flow.src_ip = sc.src_ip;
        flow.dst_ip = config_.population.dst_ip_base;
        flow.src_port = 31337;
        flow.dst_port = sc.next_port++;
        flow.proto = IpProto::kTcp;
        scan_batch_.push_back({rng_below(rng_, due + 1),
                               std::make_pair(flow, sc.target)});
      }
    }
    std::stable_sort(scan_batch_.begin(), scan_batch_.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    const std::size_t nscan = scan_batch_.size();
    std::size_t next_scan = 0;
    for (std::uint64_t i = 0; i < due; ++i) {
      while (next_scan < nscan && scan_batch_[next_scan].first <= i) {
        deliver(scan_batch_[next_scan].second.first,
                scan_batch_[next_scan].second.second);
        ++next_scan;
      }
      const FlowKey& flow = population_.sample(rng_);
      deliver(flow, target_of(flow));
    }
    for (; next_scan < nscan; ++next_scan) {
      deliver(scan_batch_[next_scan].second.first,
              scan_batch_[next_scan].second.second);
    }
    packets_ += due;
    packets_counter_->add(due);
    scan_packets_ += nscan;
    scan_counter_->add(nscan);
    ++batches_;
    batches_counter_->inc();
    flows_live_->set(static_cast<std::int64_t>(population_.size()));
  }
  if (window_end < config_.stop) {
    const SimTime next = window_end + config_.batch_interval;
    loop_.schedule_at(std::min(next, config_.stop),
                      [this, next]() { run_batch(next); });
  }
}

}  // namespace mdn::net
