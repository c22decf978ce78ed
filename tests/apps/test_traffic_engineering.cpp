#include "mdn/traffic_engineering.h"

#include <gtest/gtest.h>

#include <set>

#include "app_fixture.h"
#include "net/traffic.h"

namespace mdn::core {
namespace {

constexpr double kSampleRate = test::kSampleRate;

// Unit-level checks of the band mapping use the plain fixture.
class QueueBandTest : public test::SingleSwitchApp {};

TEST_F(QueueBandTest, BandThresholdsMatchPaper) {
  init_mdn(0);
  const auto dev = plan_.add_device("s1", 3);
  QueueToneConfig cfg;
  cfg.port_index = out_port_;
  QueueToneReporter reporter(*sw_, *emitter_, plan_, dev, cfg);
  EXPECT_EQ(reporter.band_for(0), 0u);
  EXPECT_EQ(reporter.band_for(24), 0u);
  EXPECT_EQ(reporter.band_for(25), 1u);
  EXPECT_EQ(reporter.band_for(75), 1u);
  EXPECT_EQ(reporter.band_for(76), 2u);
  EXPECT_EQ(reporter.band_for(10000), 2u);
}

TEST_F(QueueBandTest, BandFrequenciesFollowPlan) {
  init_mdn(0);
  const auto dev = plan_.add_device("s1", 3);
  QueueToneConfig cfg;
  cfg.port_index = out_port_;
  QueueToneReporter reporter(*sw_, *emitter_, plan_, dev, cfg);
  for (std::size_t band = 0; band < 3; ++band) {
    EXPECT_DOUBLE_EQ(reporter.frequency_for_band(band),
                     plan_.frequency(dev, band));
  }
}

TEST_F(QueueBandTest, ConfigValidation) {
  init_mdn(0);
  const auto dev3 = plan_.add_device("ok", 3);
  const auto dev2 = plan_.add_device("small", 2);
  QueueToneConfig bad_thresholds;
  bad_thresholds.low_threshold = 80;
  bad_thresholds.high_threshold = 20;
  EXPECT_THROW(
      QueueToneReporter(*sw_, *emitter_, plan_, dev3, bad_thresholds),
      std::invalid_argument);
  EXPECT_THROW(QueueToneReporter(*sw_, *emitter_, plan_, dev2, {}),
               std::invalid_argument);
}

TEST_F(QueueBandTest, ReporterSamplesEvery300ms) {
  init_mdn(0);
  const auto dev = plan_.add_device("s1", 3);
  QueueToneConfig cfg;
  cfg.port_index = out_port_;
  QueueToneReporter reporter(*sw_, *emitter_, plan_, dev, cfg);
  reporter.start();
  net_.loop().run_until(net::from_seconds(3.05));
  reporter.stop();
  EXPECT_EQ(reporter.samples().size(), 10u);  // 0.3 .. 3.0
  EXPECT_NEAR(reporter.samples()[1].time_s -
                  reporter.samples()[0].time_s,
              0.3, 1e-9);
  EXPECT_EQ(bridge_->played(), 10u);
}

TEST_F(QueueBandTest, RestartAfterStopKeepsOneTickSeries) {
  // stop() then start() inside one period keeps the one pending series.
  init_mdn(0);
  const auto dev = plan_.add_device("s1", 3);
  QueueToneConfig cfg;
  cfg.port_index = out_port_;
  QueueToneReporter reporter(*sw_, *emitter_, plan_, dev, cfg);
  reporter.start();
  net_.loop().run_until(net::from_seconds(0.7));
  reporter.stop();
  reporter.start();
  net_.loop().run_until(net::from_seconds(3.05));
  reporter.stop();
  EXPECT_EQ(reporter.samples().size(), 10u);  // 0.3 .. 3.0
}

// ------------------------------------------------------------------
// Full load-balancing scenario on the rhombus (§6, Fig 5a-b).
class LoadBalancerTest : public ::testing::Test {
 protected:
  LoadBalancerTest()
      : channel_(kSampleRate),
        plan_({.base_hz = 500.0, .spacing_hz = 100.0}),
        sdn_channel_(net_.loop(), net::kMillisecond) {
    net::LinkSpec slow;
    slow.rate_bps = 8e6;  // 1 ms per 1000 B packet -> 1000 pps capacity
    slow.queue_capacity = 150;
    topo_ = net::build_rhombus(net_, slow);

    // Initial single-path rule through the upper branch.
    net::FlowEntry single;
    single.priority = 10;
    single.actions = {net::Action::output(topo_.entry_upper_port)};
    topo_.entry->flow_table().add(single, 0);

    dpid_ = sdn_channel_.attach(*topo_.entry, null_controller_);
    speaker_ = channel_.add_source("s1-speaker", 0.5);
    bridge_ = std::make_unique<mp::PiSpeakerBridge>(net_.loop(), channel_,
                                                    speaker_, 0);
    emitter_ = std::make_unique<mp::MpEmitter>(net_.loop(), *bridge_, 0);

    MdnController::Config cfg;
    cfg.detector.sample_rate = kSampleRate;
    controller_ =
        std::make_unique<core::MdnController>(net_.loop(), channel_, cfg);

    device_ = plan_.add_device("s1", 3);
    QueueToneConfig qcfg;
    qcfg.port_index = topo_.entry_upper_port;
    reporter_ = std::make_unique<QueueToneReporter>(*topo_.entry, *emitter_,
                                                    plan_, device_, qcfg);
    LoadBalancerConfig lbcfg;
    lbcfg.split_ports = {topo_.entry_upper_port, topo_.entry_lower_port};
    lbcfg.flow_mod_priority = 50;
    balancer_ = std::make_unique<LoadBalancerApp>(
        *controller_, sdn_channel_, dpid_, plan_, device_, lbcfg);
  }

  void run_scenario(double seconds, double end_pps) {
    reporter_->start();
    controller_->start();
    net::SourceConfig cfg;
    cfg.flow = {topo_.src->ip(), topo_.dst->ip(), 40000, 80,
                net::IpProto::kTcp};
    cfg.start = 0;
    cfg.stop = net::from_seconds(seconds);
    net::RampSource ramp(*topo_.src, cfg, 100.0, end_pps);
    ramp.start();
    net_.loop().schedule_at(net::from_seconds(seconds), [this] {
      controller_->stop();
      reporter_->stop();
    });
    net_.loop().run();
  }

  sdn::Controller null_controller_;
  net::Network net_;
  audio::AcousticChannel channel_;
  core::FrequencyPlan plan_;
  sdn::ControlChannel sdn_channel_;
  net::RhombusTopology topo_;
  sdn::DatapathId dpid_ = 0;
  audio::SourceId speaker_ = 0;
  DeviceId device_ = 0;
  std::unique_ptr<mp::PiSpeakerBridge> bridge_;
  std::unique_ptr<mp::MpEmitter> emitter_;
  std::unique_ptr<core::MdnController> controller_;
  std::unique_ptr<QueueToneReporter> reporter_;
  std::unique_ptr<LoadBalancerApp> balancer_;
};

TEST_F(LoadBalancerTest, CongestionToneTriggersSplit) {
  run_scenario(6.0, 1800.0);

  ASSERT_TRUE(balancer_->balanced());
  EXPECT_GT(balancer_->balanced_at_s(), 0.3);
  EXPECT_LT(balancer_->balanced_at_s(), 6.0);

  // Both branches carried traffic after the split.
  EXPECT_GT(topo_.lower->forwarded(), 100u);
  EXPECT_GT(topo_.upper->forwarded(), topo_.lower->forwarded());
}

TEST_F(LoadBalancerTest, QueueDrainsAfterSplit) {
  run_scenario(6.0, 1600.0);
  ASSERT_TRUE(balancer_->balanced());

  // Find the maximum backlog before the split and the final backlog.
  const auto& samples = reporter_->samples();
  ASSERT_GT(samples.size(), 5u);
  std::size_t peak = 0;
  for (const auto& s : samples) peak = std::max(peak, s.backlog);
  EXPECT_GT(peak, 75u);  // reached the congested band
  // After the split the upper queue falls back out of the congested band
  // even as the offered load keeps rising (each path sees ~800 pps <
  // 1000 pps capacity).
  EXPECT_LT(samples.back().backlog, 76u);
}

TEST_F(LoadBalancerTest, LightLoadNeverSplits) {
  run_scenario(3.0, 500.0);  // always below path capacity
  EXPECT_FALSE(balancer_->balanced());
  EXPECT_EQ(topo_.lower->forwarded(), 0u);
}

TEST_F(LoadBalancerTest, BalanceCallbackFires) {
  bool fired = false;
  balancer_->on_balance([&] { fired = true; });
  run_scenario(6.0, 1800.0);
  EXPECT_TRUE(fired);
}

TEST_F(LoadBalancerTest, ValidatesSplitPorts) {
  LoadBalancerConfig bad;
  bad.split_ports = {1};
  EXPECT_THROW(LoadBalancerApp(*controller_, sdn_channel_, dpid_, plan_,
                               device_, bad),
               std::invalid_argument);
}

// ------------------------------------------------------------------
// Queue monitoring (§6, Fig 5c-d): bands rise with a burst, fall after.
TEST(QueueMonitorScenario, BandsFollowQueueLife) {
  net::Network net;
  audio::AcousticChannel channel(kSampleRate);
  core::FrequencyPlan plan({.base_hz = 500.0, .spacing_hz = 100.0});

  auto& sw = net.add_switch("s1");
  auto& h1 = net.add_host("h1", net::make_ipv4(10, 0, 0, 1));
  auto& h2 = net.add_host("h2", net::make_ipv4(10, 0, 0, 2));
  net::LinkSpec fast;
  fast.rate_bps = 1e9;
  net::LinkSpec slow;
  slow.rate_bps = 8e6;  // 1000 pps bottleneck
  slow.queue_capacity = 200;
  net.connect(h1, sw, fast);
  const std::size_t out = net.connect(h2, sw, slow);
  net::FlowEntry fwd;
  fwd.priority = 1;
  fwd.actions = {net::Action::output(out)};
  sw.flow_table().add(fwd, 0);

  const auto speaker = channel.add_source("s1", 0.5);
  mp::PiSpeakerBridge bridge(net.loop(), channel, speaker, 0);
  mp::MpEmitter emitter(net.loop(), bridge, 0);

  core::MdnController::Config cfg;
  cfg.detector.sample_rate = kSampleRate;
  core::MdnController controller(net.loop(), channel, cfg);

  const auto dev = plan.add_device("s1", 3);
  QueueToneConfig qcfg;
  qcfg.port_index = out;
  QueueToneReporter reporter(sw, emitter, plan, dev, qcfg);
  QueueMonitorApp monitor(controller, plan, dev);

  reporter.start();
  controller.start();

  // Burst slightly above the bottleneck (net +100 pkts/s) so successive
  // 300 ms samples walk through the 25/75 bands, then silence.
  net::SourceConfig scfg;
  scfg.flow = {h1.ip(), h2.ip(), 40000, 80, net::IpProto::kTcp};
  scfg.start = 300 * net::kMillisecond;
  scfg.stop = net::from_seconds(2.3);
  net::CbrSource burst(h1, scfg, 1100.0);
  burst.start();

  net.loop().schedule_at(net::from_seconds(5.0), [&] {
    controller.stop();
    reporter.stop();
  });
  net.loop().run();

  // All three bands were heard...
  std::set<std::size_t> bands;
  for (const auto& ev : monitor.events()) bands.insert(ev.band);
  EXPECT_TRUE(bands.contains(0));
  EXPECT_TRUE(bands.contains(1));
  EXPECT_TRUE(bands.contains(2));
  // ...the queue filled through 1 to 2, and ended back at 0 ("after all
  // traffic has been sent ... the controller is notified with another
  // sound at a lower frequency").
  ASSERT_GT(monitor.events().size(), 3u);
  EXPECT_EQ(monitor.events().back().band, 0u);
  EXPECT_EQ(monitor.current_band(), 0u);

  // Band order on the way up: a 0 -> 1 transition precedes the first 2.
  std::size_t first_two = SIZE_MAX, first_one = SIZE_MAX;
  const auto& evs = monitor.events();
  for (std::size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].band == 1 && first_one == SIZE_MAX) first_one = i;
    if (evs[i].band == 2 && first_two == SIZE_MAX) first_two = i;
  }
  ASSERT_NE(first_one, SIZE_MAX);
  ASSERT_NE(first_two, SIZE_MAX);
  EXPECT_LT(first_one, first_two);
}

}  // namespace
}  // namespace mdn::core
