#include "net/network.h"

namespace mdn::net {

Switch& Network::add_switch(std::string name) {
  switches_.push_back(std::make_unique<Switch>(loop_, std::move(name)));
  return *switches_.back();
}

Host& Network::add_host(std::string name, std::uint32_t ip) {
  hosts_.push_back(std::make_unique<Host>(loop_, std::move(name), ip));
  return *hosts_.back();
}

Link& Network::add_link(const LinkSpec& spec) {
  links_.push_back(std::make_unique<Link>(loop_, spec.rate_bps,
                                          spec.propagation_delay));
  return *links_.back();
}

std::pair<std::size_t, std::size_t> Network::connect(Switch& a, Switch& b,
                                                     const LinkSpec& spec) {
  Port& pa = a.add_port(spec.queue_capacity);
  Port& pb = b.add_port(spec.queue_capacity);
  add_link(spec).attach(pa, pb);
  return {pa.index(), pb.index()};
}

std::size_t Network::connect(Host& h, Switch& s, const LinkSpec& spec) {
  Port& ph = h.port(spec.queue_capacity);
  Port& ps = s.add_port(spec.queue_capacity);
  add_link(spec).attach(ph, ps);
  return ps.index();
}

Switch* Network::find_switch(const std::string& name) noexcept {
  for (auto& s : switches_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

Host* Network::find_host(const std::string& name) noexcept {
  for (auto& h : hosts_) {
    if (h->name() == name) return h.get();
  }
  return nullptr;
}

RhombusTopology build_rhombus(Network& net, const LinkSpec& core_spec) {
  LinkSpec host_spec = core_spec;
  host_spec.rate_bps = core_spec.rate_bps * 10.0;
  return build_rhombus(net, core_spec, host_spec);
}

RhombusTopology build_rhombus(Network& net, const LinkSpec& spec,
                              const LinkSpec& host_spec) {
  RhombusTopology t;
  t.entry = &net.add_switch("s1");
  t.upper = &net.add_switch("s2");
  t.lower = &net.add_switch("s3");
  t.exit = &net.add_switch("s4");
  t.src = &net.add_host("h1", make_ipv4(10, 0, 0, 1));
  t.dst = &net.add_host("h2", make_ipv4(10, 0, 0, 2));

  t.entry_in_port = net.connect(*t.src, *t.entry, host_spec);
  auto [s1_up, s2_in] = net.connect(*t.entry, *t.upper, spec);
  auto [s1_lo, s3_in] = net.connect(*t.entry, *t.lower, spec);
  auto [s2_out, s4_up] = net.connect(*t.upper, *t.exit, spec);
  auto [s3_out, s4_lo] = net.connect(*t.lower, *t.exit, spec);
  const std::size_t s4_dst = net.connect(*t.dst, *t.exit, host_spec);
  t.entry_upper_port = s1_up;
  t.entry_lower_port = s1_lo;

  // Static forwarding on the interior: everything toward the destination.
  const SimTime now = net.loop().now();
  FlowEntry fwd;
  fwd.priority = 1;
  fwd.match = Match::any();

  fwd.actions = {Action::output(s2_out)};
  t.upper->flow_table().add(fwd, now);
  fwd.actions = {Action::output(s3_out)};
  t.lower->flow_table().add(fwd, now);
  fwd.actions = {Action::output(s4_dst)};
  t.exit->flow_table().add(fwd, now);
  (void)s2_in;
  (void)s3_in;
  (void)s4_up;
  (void)s4_lo;
  return t;
}

std::vector<Switch*> build_chain(Network& net, std::size_t n_switches,
                                 Host** src, Host** dst,
                                 const LinkSpec& spec) {
  std::vector<Switch*> switches;
  switches.reserve(n_switches);
  for (std::size_t i = 0; i < n_switches; ++i) {
    switches.push_back(
        &net.add_switch(std::string("s").append(std::to_string(i + 1))));
  }
  Host& h_src = net.add_host("h_src", make_ipv4(10, 0, 0, 1));
  Host& h_dst = net.add_host("h_dst", make_ipv4(10, 0, 0, 2));
  if (src) *src = &h_src;
  if (dst) *dst = &h_dst;

  const SimTime now = net.loop().now();
  // h_src -> s1 -> ... -> sN -> h_dst with static "forward right" rules.
  net.connect(h_src, *switches.front(), spec);
  for (std::size_t i = 0; i + 1 < n_switches; ++i) {
    auto [left_out, right_in] =
        net.connect(*switches[i], *switches[i + 1], spec);
    FlowEntry e;
    e.priority = 1;
    e.actions = {Action::output(left_out)};
    switches[i]->flow_table().add(e, now);
    (void)right_in;
  }
  const std::size_t last_out = net.connect(h_dst, *switches.back(), spec);
  FlowEntry e;
  e.priority = 1;
  e.actions = {Action::output(last_out)};
  switches.back()->flow_table().add(e, now);
  return switches;
}

}  // namespace mdn::net
