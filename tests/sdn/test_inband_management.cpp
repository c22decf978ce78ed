// In-band management session failure semantics and the polling baseline.
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/traffic.h"
#include "sdn/controller.h"

namespace mdn::sdn {
namespace {

using net::Action;
using net::FlowEntry;
using net::make_ipv4;

struct SessionFixture : ::testing::Test {
  void SetUp() override {
    sw = &net.add_switch("s1");
    h1 = &net.add_host("h1", make_ipv4(10, 0, 0, 1));
    h2 = &net.add_host("h2", make_ipv4(10, 0, 0, 2));
    net.connect(*h1, *sw);
    out = net.connect(*h2, *sw);
    channel = std::make_unique<ControlChannel>(net.loop(), 0);
    dpid = channel->attach(*sw, controller);
  }

  Controller controller;
  net::Network net;
  net::Switch* sw = nullptr;
  net::Host* h1 = nullptr;
  net::Host* h2 = nullptr;
  std::size_t out = 0;
  std::unique_ptr<ControlChannel> channel;
  DatapathId dpid = 0;
};

TEST_F(SessionFixture, SessionStartsUp) {
  EXPECT_TRUE(channel->session_up(dpid));
  EXPECT_THROW(channel->session_up(99), std::out_of_range);
}

TEST_F(SessionFixture, DownSessionDropsFlowMods) {
  channel->set_session_up(dpid, false);
  FlowEntry e;
  e.priority = 1;
  e.actions = {Action::output(out)};
  channel->send_flow_mod(dpid, FlowMod::add(e));
  net.loop().run();
  EXPECT_EQ(sw->flow_table().size(), 0u);
  EXPECT_EQ(channel->failed_sends(), 1u);
  EXPECT_EQ(channel->flow_mods_sent(), 0u);
}

TEST_F(SessionFixture, DownSessionDropsPacketIns) {
  class Recorder : public Controller {
   public:
    void on_packet_in(DatapathId, const PacketIn&) override { ++count; }
    int count = 0;
  } recorder;
  net::Switch& s2 = net.add_switch("s2");
  net::Host& h3 = net.add_host("h3", make_ipv4(10, 0, 0, 3));
  net.connect(h3, s2);
  const auto dpid2 = channel->attach(s2, recorder);
  channel->set_session_up(dpid2, false);

  net::Packet p;
  p.flow = {h3.ip(), h2->ip(), 1, 2, net::IpProto::kTcp};
  h3.send(p);  // table miss
  net.loop().run();
  EXPECT_EQ(recorder.count, 0);
}

TEST_F(SessionFixture, StatsQueriesFailWhileDown) {
  channel->set_session_up(dpid, false);
  EXPECT_THROW(channel->query_port_stats(dpid), std::runtime_error);
  EXPECT_FALSE(channel->try_query_port_stats(dpid).has_value());
  channel->set_session_up(dpid, true);
  EXPECT_TRUE(channel->try_query_port_stats(dpid).has_value());
}

struct PollingFixture : ::testing::Test {
  void SetUp() override {
    sw = &net.add_switch("s1");
    h1 = &net.add_host("h1", make_ipv4(10, 0, 0, 1));
    h2 = &net.add_host("h2", make_ipv4(10, 0, 0, 2));
    net::LinkSpec fast;
    fast.rate_bps = 1e9;
    net::LinkSpec slow;
    slow.rate_bps = 8e6;  // 1000 pps bottleneck
    slow.queue_capacity = 300;
    net.connect(*h1, *sw, fast);
    out = net.connect(*h2, *sw, slow);
    FlowEntry e;
    e.priority = 1;
    e.actions = {Action::output(out)};
    sw->flow_table().add(e, 0);
    channel = std::make_unique<ControlChannel>(net.loop(), 0);
    dpid = channel->attach(*sw, controller);
  }

  void drive_congestion() {
    cfg.flow = {h1->ip(), h2->ip(), 40000, 80, net::IpProto::kTcp};
    cfg.start = 0;
    cfg.stop = net::from_seconds(3.0);
    source = std::make_unique<net::CbrSource>(*h1, cfg, 1500.0);
    source->start();
  }

  Controller controller;
  net::Network net;
  net::Switch* sw = nullptr;
  net::Host* h1 = nullptr;
  net::Host* h2 = nullptr;
  std::size_t out = 0;
  std::unique_ptr<ControlChannel> channel;
  DatapathId dpid = 0;
  net::SourceConfig cfg;
  std::unique_ptr<net::CbrSource> source;
};

TEST_F(PollingFixture, DetectsCongestionWhileSessionHealthy) {
  PollingQueueMonitor monitor(*channel, dpid, out, 75);
  monitor.start();
  drive_congestion();
  net.loop().schedule_at(net::from_seconds(4.0), [&] { monitor.stop(); });
  net.loop().run();

  EXPECT_TRUE(monitor.congestion_seen());
  EXPECT_GT(monitor.congestion_seen_at_s(), 0.0);
  EXPECT_EQ(monitor.failed_polls(), 0u);
}

TEST_F(PollingFixture, BlindWhileSessionDown) {
  PollingQueueMonitor monitor(*channel, dpid, out, 75);
  monitor.start();
  channel->set_session_up(dpid, false);
  drive_congestion();
  net.loop().schedule_at(net::from_seconds(4.0), [&] { monitor.stop(); });
  net.loop().run();

  EXPECT_FALSE(monitor.congestion_seen());
  EXPECT_GT(monitor.failed_polls(), 0u);
  EXPECT_EQ(monitor.polls(), monitor.failed_polls());
}

TEST_F(PollingFixture, RecoversAfterSessionRestored) {
  PollingQueueMonitor monitor(*channel, dpid, out, 75);
  monitor.start();
  channel->set_session_up(dpid, false);
  drive_congestion();
  net.loop().schedule_at(net::from_seconds(1.0), [&] {
    channel->set_session_up(dpid, true);
  });
  net.loop().schedule_at(net::from_seconds(4.0), [&] { monitor.stop(); });
  net.loop().run();

  EXPECT_TRUE(monitor.congestion_seen());
  EXPECT_GT(monitor.congestion_seen_at_s(), 1.0);
}

TEST_F(PollingFixture, RestartAfterStopKeepsOneTickSeries) {
  // stop() then start() inside one period keeps the one pending series.
  PollingQueueMonitor monitor(*channel, dpid, out, 75);
  monitor.start();
  net.loop().run_until(net::from_seconds(0.7));
  monitor.stop();
  monitor.start();
  net.loop().run_until(net::from_seconds(3.05));
  monitor.stop();
  EXPECT_EQ(monitor.polls(), 10u);  // 0.3 .. 3.0
}

}  // namespace
}  // namespace mdn::sdn
