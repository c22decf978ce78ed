// Ports and links.
//
// A Port is a node's attachment point with an egress drop-tail queue and a
// serialising transmitter; a Link joins two ports with a bit rate and a
// propagation delay.  Store-and-forward: a packet occupies the transmitter
// for size*8/rate, then arrives at the peer after the propagation delay.
#pragma once

#include <cstdint>
#include <string>

#include "net/event_loop.h"
#include "net/node.h"
#include "net/queue.h"

namespace mdn::net {

class Link;

class Port {
 public:
  Port(EventLoop& loop, Node& owner, std::size_t index,
       std::size_t queue_capacity);

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Queues `pkt` for transmission.  Returns false if the egress queue
  /// dropped it (or the port is not connected).
  bool send(Packet pkt);

  /// DCTCP-style step marking: ECN-capable packets enqueued while the
  /// backlog is at or above `threshold` get their CE bit set.  0 (the
  /// default) disables marking.  This is the in-band baseline the paper
  /// contrasts with music-defined congestion signalling (§6).
  void set_ecn_threshold(std::size_t threshold) noexcept {
    ecn_threshold_ = threshold;
  }
  std::size_t ecn_threshold() const noexcept { return ecn_threshold_; }
  std::uint64_t ecn_marked() const noexcept { return ecn_marked_; }

  std::size_t index() const noexcept { return index_; }
  bool connected() const noexcept { return link_ != nullptr; }
  Node& owner() noexcept { return owner_; }
  /// The attached link (nullptr before attach) — e.g. to fail it.
  Link* attached_link() noexcept { return link_; }

  /// Registers "<prefix>/queue_depth" (gauge) and "<prefix>/queue_drops"
  /// (counter) in the global registry and mirrors this port's egress
  /// queue into them.  Owners with meaningful names (Switch::add_port)
  /// call this; anonymous ports stay unmetered.
  void bind_queue_metrics(const std::string& prefix);

  const DropTailQueue& queue() const noexcept { return queue_; }
  /// Packets in flight through this port right now: egress queue plus the
  /// one being serialised.  This is what `tc` reports on a Linux qdisc and
  /// what the §6 applications sample.
  std::size_t backlog() const noexcept {
    return queue_.size() + (transmitting_ ? 1 : 0);
  }

  std::uint64_t tx_packets() const noexcept { return tx_packets_; }
  std::uint64_t tx_bytes() const noexcept { return tx_bytes_; }
  std::uint64_t rx_packets() const noexcept { return rx_packets_; }
  std::uint64_t rx_bytes() const noexcept { return rx_bytes_; }
  std::uint64_t drops() const noexcept { return queue_.drops() + unconnected_drops_; }

 private:
  friend class Link;

  void attach(Link& link, int end) noexcept;
  void start_transmission(Packet pkt);
  void transmission_complete();
  void count_rx(const Packet& pkt) noexcept;

  EventLoop& loop_;
  Node& owner_;
  std::size_t index_;
  DropTailQueue queue_;
  Link* link_ = nullptr;
  int end_ = 0;
  bool transmitting_ = false;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t unconnected_drops_ = 0;
  std::size_t ecn_threshold_ = 0;
  std::uint64_t ecn_marked_ = 0;
};

class Link {
 public:
  Link(EventLoop& loop, double rate_bps, SimTime propagation_delay);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Wires the two ends.  Must be called exactly once.
  void attach(Port& a, Port& b);

  double rate_bps() const noexcept { return rate_bps_; }
  SimTime propagation_delay() const noexcept { return propagation_delay_; }

  /// Serialisation time for a packet of `bytes` bytes.
  SimTime transmit_time(std::uint32_t bytes) const noexcept;

  /// Fails or repairs the link.  While down, packets finishing
  /// transmission are lost (counted in lost_packets), like a cut cable.
  /// This is the failure mode that motivates out-of-band management
  /// (§1 of the paper): in-band control traffic dies with the link.
  void set_up(bool up) noexcept { up_ = up; }
  bool is_up() const noexcept { return up_; }
  std::uint64_t lost_packets() const noexcept { return lost_packets_; }

 private:
  friend class Port;

  /// Schedules delivery of `pkt` to the peer of `from_end`.
  void forward_to_peer(int from_end, Packet pkt);

  EventLoop& loop_;
  double rate_bps_;
  SimTime propagation_delay_;
  bool up_ = true;
  std::uint64_t lost_packets_ = 0;
  Port* ends_[2] = {nullptr, nullptr};
};

}  // namespace mdn::net
