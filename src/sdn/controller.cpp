#include "sdn/controller.h"

#include <stdexcept>

namespace mdn::sdn {

ControlChannel::ControlChannel(net::EventLoop& loop, net::SimTime latency)
    : loop_(loop), latency_(latency) {
  auto& registry = obs::Registry::global();
  flow_mod_counter_ = &registry.counter("sdn/controller/flow_mods");
  packet_in_counter_ = &registry.counter("sdn/controller/packet_ins");
  failed_send_counter_ = &registry.counter("sdn/controller/failed_sends");
}

DatapathId ControlChannel::attach(net::Switch& sw, Controller& controller) {
  const DatapathId dpid = switches_.size();
  switches_.push_back(&sw);
  session_up_.push_back(true);
  sw.set_miss_handler(
      [this, dpid, &controller](const net::Packet& pkt, std::size_t in_port) {
        if (!session_up_[dpid]) {
          ++failed_sends_;
          failed_send_counter_->inc();
          return;
        }
        PacketIn msg;
        msg.packet = pkt;
        msg.in_port = in_port;
        msg.datapath = dpid;
        loop_.schedule_in(latency_, [this, &controller, msg]() {
          ++packet_ins_delivered_;
          packet_in_counter_->inc();
          controller.on_packet_in(msg.datapath, msg);
        });
      });
  controller.on_switch_attached(dpid, sw);
  return dpid;
}

void ControlChannel::set_session_up(DatapathId dpid, bool up) {
  if (dpid >= session_up_.size()) {
    throw std::out_of_range("ControlChannel: unknown datapath");
  }
  session_up_[dpid] = up;
}

bool ControlChannel::session_up(DatapathId dpid) const {
  if (dpid >= session_up_.size()) {
    throw std::out_of_range("ControlChannel: unknown datapath");
  }
  return session_up_[dpid];
}

net::Switch& ControlChannel::switch_for(DatapathId dpid) {
  if (dpid >= switches_.size()) {
    throw std::out_of_range("ControlChannel: unknown datapath");
  }
  return *switches_[dpid];
}

const net::Switch& ControlChannel::switch_for(DatapathId dpid) const {
  if (dpid >= switches_.size()) {
    throw std::out_of_range("ControlChannel: unknown datapath");
  }
  return *switches_[dpid];
}

namespace {

const char* flow_mod_label(FlowMod::Command command) {
  switch (command) {
    case FlowMod::Command::kAdd: return "flow_add";
    case FlowMod::Command::kDeleteByCookie: return "flow_del_cookie";
    case FlowMod::Command::kDeleteByMatch: return "flow_del_match";
    case FlowMod::Command::kClear: return "flow_clear";
  }
  return "flow_mod";
}

}  // namespace

obs::CauseId ControlChannel::send_flow_mod(DatapathId dpid, FlowMod mod,
                                           obs::CauseId cause) {
  net::Switch& sw = switch_for(dpid);
  if (!session_up_[dpid]) {
    ++failed_sends_;
    failed_send_counter_->inc();
    return 0;
  }
  ++flow_mods_sent_;
  flow_mod_counter_->inc();
  obs::CauseId record_id = 0;
  obs::Journal& journal = obs::Journal::global();
  if (journal.enabled()) {
    obs::JournalRecord rec;
    rec.kind = obs::JournalKind::kFlowMod;
    rec.cause = cause;
    rec.sim_ns = loop_.now();
    rec.value = mod.entry.priority;
    rec.aux = dpid;
    obs::set_journal_label(rec, flow_mod_label(mod.command));
    record_id = journal.append(rec);
  }
  loop_.schedule_in(latency_, [this, &sw, mod = std::move(mod)]() {
    apply_flow_mod(sw, mod);
  });
  return record_id;
}

void ControlChannel::apply_flow_mod(net::Switch& sw, const FlowMod& mod) {
  switch (mod.command) {
    case FlowMod::Command::kAdd:
      sw.flow_table().add(mod.entry, loop_.now());
      break;
    case FlowMod::Command::kDeleteByCookie:
      sw.flow_table().remove_by_cookie(mod.cookie);
      break;
    case FlowMod::Command::kDeleteByMatch:
      sw.flow_table().remove_by_match(mod.match);
      break;
    case FlowMod::Command::kClear:
      sw.flow_table().clear();
      break;
  }
}

void ControlChannel::send_packet_out(DatapathId dpid, PacketOut out) {
  net::Switch& sw = switch_for(dpid);
  if (!session_up_[dpid]) {
    ++failed_sends_;
    failed_send_counter_->inc();
    return;
  }
  loop_.schedule_in(latency_, [this, &sw, out = std::move(out)]() mutable {
    apply_packet_out(sw, std::move(out));
  });
}

void ControlChannel::apply_packet_out(net::Switch& sw, PacketOut out) {
  switch (out.action.type) {
    case net::ActionType::kOutput:
      if (out.action.port < sw.port_count()) {
        sw.port(out.action.port).send(std::move(out.packet));
      }
      break;
    case net::ActionType::kFlood:
      for (std::size_t i = 0; i < sw.port_count(); ++i) {
        if (out.in_port && *out.in_port == i) continue;
        if (sw.port(i).connected()) sw.port(i).send(out.packet);
      }
      break;
    case net::ActionType::kDrop:
    case net::ActionType::kGroup:
      break;  // not meaningful for packet-out
  }
}

std::vector<PortStats> ControlChannel::query_port_stats(
    DatapathId dpid) const {
  if (!session_up_[dpid]) {
    ++failed_sends_;
    failed_send_counter_->inc();
    throw std::runtime_error(
        "ControlChannel: management session to switch is down");
  }
  const net::Switch& sw = switch_for(dpid);
  std::vector<PortStats> stats;
  stats.reserve(sw.port_count());
  for (std::size_t i = 0; i < sw.port_count(); ++i) {
    const net::Port& p = sw.port(i);
    stats.push_back({i, p.tx_packets(), p.tx_bytes(), p.rx_packets(),
                     p.rx_bytes(), p.drops(), p.backlog()});
  }
  return stats;
}

std::optional<std::vector<PortStats>> ControlChannel::try_query_port_stats(
    DatapathId dpid) const {
  if (!session_up_[dpid]) {
    ++failed_sends_;
    failed_send_counter_->inc();
    return std::nullopt;
  }
  return query_port_stats(dpid);
}

PollingQueueMonitor::PollingQueueMonitor(ControlChannel& channel,
                                         DatapathId dpid,
                                         std::size_t port_index,
                                         std::size_t threshold,
                                         net::SimTime period)
    : channel_(channel),
      dpid_(dpid),
      port_index_(port_index),
      threshold_(threshold),
      period_(period) {}

void PollingQueueMonitor::start() {
  if (running_) return;
  running_ = true;
  // A series not yet fired since stop() resumes on its own phase.
  if (series_pending_) return;
  series_pending_ = true;
  channel_.loop().schedule_periodic(period_, period_, [this] {
    series_pending_ = tick();
    return series_pending_;
  });
}

bool PollingQueueMonitor::tick() {
  if (!running_) return false;
  ++polls_;
  const auto stats = channel_.try_query_port_stats(dpid_);
  if (!stats) {
    ++failed_polls_;
    return running_;
  }
  if (port_index_ < stats->size() &&
      (*stats)[port_index_].queue_backlog > threshold_ &&
      !congestion_seen_) {
    congestion_seen_ = true;
    seen_at_s_ = net::to_seconds(channel_.loop().now());
  }
  return running_;
}

void LearningController::on_packet_in(DatapathId dpid, const PacketIn& msg) {
  auto& table = location_[dpid];
  table[msg.packet.flow.src_ip] = msg.in_port;

  const auto it = table.find(msg.packet.flow.dst_ip);
  if (it != table.end()) {
    net::FlowEntry entry;
    entry.priority = 10;
    entry.match.dst_ip = msg.packet.flow.dst_ip;
    entry.actions = {net::Action::output(it->second)};
    entry.idle_timeout = 30 * net::kSecond;
    channel_.send_flow_mod(dpid, FlowMod::add(entry));
    ++installs_;
    channel_.send_packet_out(dpid, PacketOut{msg.packet,
                                             net::Action::output(it->second),
                                             msg.in_port});
  } else {
    ++floods_;
    channel_.send_packet_out(
        dpid, PacketOut{msg.packet, net::Action::flood(), msg.in_port});
  }
}

}  // namespace mdn::sdn
