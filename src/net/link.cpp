#include "net/link.h"

#include <cmath>
#include <stdexcept>

namespace mdn::net {

Port::Port(EventLoop& loop, Node& owner, std::size_t index,
           std::size_t queue_capacity)
    : loop_(loop), owner_(owner), index_(index), queue_(queue_capacity) {}

void Port::attach(Link& link, int end) noexcept {
  link_ = &link;
  end_ = end;
}

void Port::bind_queue_metrics(const std::string& prefix) {
  auto& registry = obs::Registry::global();
  queue_.bind_metrics(&registry.gauge(prefix + "/queue_depth"),
                      &registry.counter(prefix + "/queue_drops"));
}

bool Port::send(Packet pkt) {
  if (link_ == nullptr) {
    ++unconnected_drops_;
    return false;
  }
  if (ecn_threshold_ > 0 && pkt.ecn_capable && !pkt.ecn_marked &&
      backlog() >= ecn_threshold_) {
    pkt.ecn_marked = true;
    ++ecn_marked_;
  }
  if (transmitting_) return queue_.push(std::move(pkt));
  start_transmission(std::move(pkt));
  return true;
}

void Port::start_transmission(Packet pkt) {
  transmitting_ = true;
  const SimTime tx = link_->transmit_time(pkt.size_bytes);
  tx_bytes_ += pkt.size_bytes;
  ++tx_packets_;
  loop_.schedule_in(tx, [this, pkt = std::move(pkt)]() mutable {
    link_->forward_to_peer(end_, std::move(pkt));
    transmission_complete();
  });
}

void Port::transmission_complete() {
  transmitting_ = false;
  if (auto next = queue_.pop()) start_transmission(std::move(*next));
}

void Port::count_rx(const Packet& pkt) noexcept {
  ++rx_packets_;
  rx_bytes_ += pkt.size_bytes;
}

Link::Link(EventLoop& loop, double rate_bps, SimTime propagation_delay)
    : loop_(loop), rate_bps_(rate_bps), propagation_delay_(propagation_delay) {
  if (rate_bps <= 0.0) {
    throw std::invalid_argument("Link: rate must be positive");
  }
}

void Link::attach(Port& a, Port& b) {
  if (ends_[0] != nullptr || ends_[1] != nullptr) {
    throw std::logic_error("Link::attach: already attached");
  }
  ends_[0] = &a;
  ends_[1] = &b;
  a.attach(*this, 0);
  b.attach(*this, 1);
}

SimTime Link::transmit_time(std::uint32_t bytes) const noexcept {
  const double seconds = static_cast<double>(bytes) * 8.0 / rate_bps_;
  return from_seconds(seconds);
}

void Link::forward_to_peer(int from_end, Packet pkt) {
  if (!up_) {
    ++lost_packets_;
    return;
  }
  Port* peer = ends_[from_end == 0 ? 1 : 0];
  if (peer == nullptr) return;
  loop_.schedule_in(propagation_delay_, [peer, pkt = std::move(pkt)]() mutable {
    peer->count_rx(pkt);
    peer->owner().receive(std::move(pkt), peer->index());
  });
}

}  // namespace mdn::net
