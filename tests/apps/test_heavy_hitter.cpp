#include "mdn/heavy_hitter.h"

#include <gtest/gtest.h>

#include "app_fixture.h"
#include "net/traffic.h"
#include "obs/journal.h"

namespace mdn::core {
namespace {

using test::SingleSwitchApp;

class HeavyHitterTest : public SingleSwitchApp {
 protected:
  HeavyHitterConfig make_config() {
    HeavyHitterConfig cfg;
    cfg.tone_duration_s = 0.03;
    cfg.window_s = 2.0;
    cfg.threshold = 8;
    return cfg;
  }

  // Switch tones are rate-policed to one per 100 ms: an elephant flow
  // produces ~10 onsets/s in its bin, mice produce sporadic ones.
  void setup(std::size_t bins = 16) {
    init_mdn(100 * net::kMillisecond);
    install_forwarding();
    device_ = plan_.add_device("s1", bins);
    reporter_ = std::make_unique<HeavyHitterReporter>(
        *sw_, *emitter_, plan_, device_, make_config());
    detector_ = std::make_unique<HeavyHitterDetector>(
        *controller_, plan_, device_, make_config());
    controller_->start();
  }

  DeviceId device_ = 0;
  std::unique_ptr<HeavyHitterReporter> reporter_;
  std::unique_ptr<HeavyHitterDetector> detector_;
};

TEST_F(HeavyHitterTest, BinMappingIsDeterministicHash) {
  setup();
  const auto f = flow(80);
  EXPECT_EQ(reporter_->bin_for(f),
            net::flow_hash(f) % reporter_->bin_count());
  EXPECT_DOUBLE_EQ(reporter_->frequency_for(f),
                   plan_.frequency(device_, reporter_->bin_for(f)));
}

TEST_F(HeavyHitterTest, ElephantFlowRaisesAlert) {
  setup();
  net::SourceConfig cfg;
  cfg.flow = flow(80);
  cfg.start = 100 * net::kMillisecond;
  cfg.stop = net::from_seconds(4.0);
  net::CbrSource elephant(*h1_, cfg, 200.0);  // far above tone police rate
  elephant.start();
  run_for(4.5);

  ASSERT_FALSE(detector_->alerts().empty());
  const auto& alert = detector_->alerts().front();
  EXPECT_EQ(alert.bin, reporter_->bin_for(flow(80)));
  EXPECT_GE(alert.count_in_window, make_config().threshold);
  EXPECT_LT(alert.time_s, 3.0);  // detected within ~2 windows
}

TEST_F(HeavyHitterTest, AlertIsStampedNoEarlierThanItsDetection) {
  // The alert is raised when the controller hears the onset (block
  // end), so its record must not precede the detection it cites, and
  // explain() must end on the alert itself.
  obs::Journal& journal = obs::Journal::global();
  journal.enable(8192);
  journal.clear();
  setup();
  net::SourceConfig cfg;
  cfg.flow = flow(80);
  cfg.start = 100 * net::kMillisecond;
  cfg.stop = net::from_seconds(4.0);
  net::CbrSource elephant(*h1_, cfg, 200.0);
  elephant.start();
  run_for(4.5);

  ASSERT_FALSE(detector_->alerts().empty());
  const obs::CauseId id = detector_->alerts().front().cause;
  obs::JournalRecord alert, detection;
  ASSERT_TRUE(journal.find(id, &alert));
  ASSERT_TRUE(journal.find(alert.cause, &detection));
  EXPECT_EQ(detection.kind, obs::JournalKind::kToneDetected);
  EXPECT_GE(alert.sim_ns, detection.sim_ns);
  EXPECT_EQ(journal.explain(id).back().id, id);
  journal.disable();
  journal.clear();
}

TEST_F(HeavyHitterTest, MiceAloneRaiseNoAlert) {
  setup();
  // Three light flows at 1 pps each: ~1 onset/s spread over bins.
  std::vector<std::unique_ptr<net::CbrSource>> mice;
  for (std::uint16_t port : {81, 82, 83}) {
    net::SourceConfig cfg;
    cfg.flow = flow(port, static_cast<std::uint16_t>(port + 1000));
    cfg.stop = net::from_seconds(4.0);
    mice.push_back(std::make_unique<net::CbrSource>(*h1_, cfg, 1.0));
    mice.back()->start();
  }
  run_for(4.5);
  EXPECT_TRUE(detector_->alerts().empty());
}

TEST_F(HeavyHitterTest, MixedWorkloadFlagsOnlyTheElephant) {
  setup();
  std::vector<net::FlowMixSource::WeightedFlow> flows;
  flows.push_back({flow(80), 20.0});
  for (std::uint16_t p = 81; p < 86; ++p) flows.push_back({flow(p), 1.0});
  net::FlowMixSource mix(*h1_, flows, 300.0, 0, net::from_seconds(4.0), 5);
  mix.start();
  run_for(4.5);

  ASSERT_FALSE(detector_->alerts().empty());
  const std::size_t elephant_bin = reporter_->bin_for(flow(80));
  for (const auto& alert : detector_->alerts()) {
    EXPECT_EQ(alert.bin, elephant_bin);
  }
}

TEST_F(HeavyHitterTest, TotalsCountPerBin) {
  setup();
  net::SourceConfig cfg;
  cfg.flow = flow(80);
  cfg.stop = net::from_seconds(2.0);
  net::CbrSource src(*h1_, cfg, 100.0);
  src.start();
  run_for(2.5);

  const auto& totals = detector_->totals();
  const std::size_t bin = reporter_->bin_for(flow(80));
  // ~10 policed tones/s for 2 s.
  EXPECT_GE(totals[bin], 10u);
  for (std::size_t b = 0; b < totals.size(); ++b) {
    if (b != bin) {
      EXPECT_EQ(totals[b], 0u) << "bin " << b;
    }
  }
}

TEST_F(HeavyHitterTest, AlertHandlerInvoked) {
  setup();
  int alerts = 0;
  detector_->on_alert([&](const HeavyHitterDetector::Alert&) { ++alerts; });
  net::SourceConfig cfg;
  cfg.flow = flow(80);
  cfg.stop = net::from_seconds(3.0);
  net::CbrSource src(*h1_, cfg, 200.0);
  src.start();
  run_for(3.5);
  EXPECT_GE(alerts, 1);
}

TEST_F(HeavyHitterTest, WindowExpiresOldOnsets) {
  setup();
  // Burst then silence: the window count must decay to zero.
  net::SourceConfig cfg;
  cfg.flow = flow(80);
  cfg.stop = net::from_seconds(1.0);
  net::CbrSource src(*h1_, cfg, 200.0);
  src.start();
  run_for(6.0);

  const std::size_t bin = reporter_->bin_for(flow(80));
  EXPECT_EQ(detector_->window_count(bin),
            detector_->window_count(bin));  // accessor stable
  // All onsets happened before t=1.2; window is 2 s; by t=6 nothing new
  // arrived, so a query "now" would be empty — we check indirectly: no
  // alert fires after the burst's own alerts.
  for (const auto& alert : detector_->alerts()) {
    EXPECT_LT(alert.time_s, 1.5);
  }
}

TEST_F(HeavyHitterTest, RatePolicingBoundsToneRate) {
  setup();
  net::SourceConfig cfg;
  cfg.flow = flow(80);
  cfg.stop = net::from_seconds(2.0);
  net::CbrSource src(*h1_, cfg, 1000.0);  // 2000 packets
  src.start();
  run_for(2.5);
  // 100 ms police -> at most ~21 tones despite 2000 packets.
  EXPECT_LE(bridge_->played(), 22u);
  EXPECT_GT(emitter_->suppressed(), 1500u);
}

}  // namespace
}  // namespace mdn::core
