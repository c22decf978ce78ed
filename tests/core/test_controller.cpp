#include "mdn/controller.h"

#include <gtest/gtest.h>

#include "audio/synth.h"

namespace mdn::core {
namespace {

constexpr double kSampleRate = 48000.0;

audio::Waveform tone(double freq, double amp, double dur) {
  audio::ToneSpec spec;
  spec.frequency_hz = freq;
  spec.amplitude = amp;
  spec.duration_s = dur;
  return audio::make_tone(spec, kSampleRate);
}

struct ControllerFixture : ::testing::Test {
  ControllerFixture() : channel(kSampleRate) {
    source = channel.add_source("speaker", 1.0);
  }

  MdnController::Config config() const {
    MdnController::Config cfg;
    cfg.detector.sample_rate = kSampleRate;
    return cfg;
  }

  net::EventLoop loop;
  audio::AcousticChannel channel;
  audio::SourceId source;
};

TEST_F(ControllerFixture, HearsScheduledTone) {
  MdnController ctl(loop, channel, config());
  std::vector<ToneEvent> events;
  ctl.watch(700.0, [&](const ToneEvent& ev) { events.push_back(ev); });
  ctl.start();

  channel.emit(source, tone(700.0, 0.1, 0.08), 0.2);
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();

  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time_s, 0.2, 0.06);
  EXPECT_DOUBLE_EQ(events[0].frequency_hz, 700.0);
  EXPECT_GT(events[0].amplitude, 0.05);
}

TEST_F(ControllerFixture, LongToneYieldsSingleOnset) {
  MdnController ctl(loop, channel, config());
  int onsets = 0;
  ctl.watch(900.0, [&](const ToneEvent&) { ++onsets; });
  ctl.start();
  channel.emit(source, tone(900.0, 0.1, 0.5), 0.1);  // 10 hops long
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(onsets, 1);
}

TEST_F(ControllerFixture, SeparatedBurstsYieldSeparateOnsets) {
  MdnController ctl(loop, channel, config());
  int onsets = 0;
  ctl.watch(900.0, [&](const ToneEvent&) { ++onsets; });
  ctl.start();
  channel.emit(source, tone(900.0, 0.1, 0.08), 0.1);
  channel.emit(source, tone(900.0, 0.1, 0.08), 0.5);
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(onsets, 2);
}

TEST_F(ControllerFixture, UnwatchedFrequencyIgnoredByHandlersButLogged) {
  MdnController ctl(loop, channel, config());
  int fired = 0;
  ctl.watch(700.0, [&](const ToneEvent&) { ++fired; });
  ctl.start();
  channel.emit(source, tone(1500.0, 0.1, 0.08), 0.1);
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(ctl.event_log().empty());  // log covers watched tones only
}

TEST_F(ControllerFixture, WatchAllBindsWholeSet) {
  MdnController ctl(loop, channel, config());
  std::vector<double> heard;
  const std::vector<double> set{500.0, 520.0, 540.0};
  ctl.watch_all(set, [&](const ToneEvent& ev) {
    heard.push_back(ev.frequency_hz);
  });
  ctl.start();
  channel.emit(source, tone(520.0, 0.1, 0.08), 0.1);
  channel.emit(source, tone(540.0, 0.1, 0.08), 0.4);
  loop.schedule_at(net::from_seconds(0.8), [&] { ctl.stop(); });
  loop.run();
  ASSERT_EQ(heard.size(), 2u);
  EXPECT_DOUBLE_EQ(heard[0], 520.0);
  EXPECT_DOUBLE_EQ(heard[1], 540.0);
}

TEST_F(ControllerFixture, StopHaltsListening) {
  MdnController ctl(loop, channel, config());
  int fired = 0;
  ctl.watch(700.0, [&](const ToneEvent&) { ++fired; });
  ctl.start();
  loop.schedule_at(net::from_seconds(0.2), [&] { ctl.stop(); });
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.5);  // after stop
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(ctl.running());
}

TEST_F(ControllerFixture, KeepRecordingCapturesAudio) {
  auto cfg = config();
  cfg.keep_recording = true;
  MdnController ctl(loop, channel, cfg);
  ctl.start();
  channel.emit(source, tone(700.0, 0.2, 0.1), 0.1);
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();
  // ~0.5 s of audio captured.
  EXPECT_NEAR(ctl.recording().duration_s(), 0.5, 0.1);
  EXPECT_GT(ctl.recording().peak(), 0.1);
}

TEST_F(ControllerFixture, BlocksProcessedCounts) {
  MdnController ctl(loop, channel, config());
  ctl.start();
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();
  // 50 ms hop over 0.5 s -> ~10 blocks.
  EXPECT_NEAR(static_cast<double>(ctl.blocks_processed()), 10.0, 2.0);
}

TEST_F(ControllerFixture, RestartAfterStopKeepsOneTickSeries) {
  // stop() then start() inside one hop: the series scheduled by the first
  // start() has not fired since, so it resumes and no second series
  // doubles the blocks.
  MdnController ctl(loop, channel, config());
  ctl.start();
  loop.run_until(net::from_seconds(0.12));
  ctl.stop();
  ctl.start();
  loop.run_until(net::from_seconds(1.0));
  EXPECT_EQ(ctl.blocks_processed(), 20u);  // one per 50 ms hop
}

TEST_F(ControllerFixture, EventLogAccumulates) {
  MdnController ctl(loop, channel, config());
  ctl.watch(700.0, nullptr);
  ctl.start();
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.1);
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.4);
  loop.schedule_at(net::from_seconds(0.8), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(ctl.event_log().size(), 2u);
}

TEST_F(ControllerFixture, MicNoiseFloorDoesNotTriggerWatches) {
  auto cfg = config();
  cfg.microphone.noise_floor_rms = 5e-4;
  MdnController ctl(loop, channel, cfg);
  int fired = 0;
  ctl.watch(700.0, [&](const ToneEvent&) { ++fired; });
  ctl.start();
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ControllerFixture, StartThrowsWhenHealthHasNoEstimatorForTheMic) {
  obs::Health health;
  auto cfg = config();
  cfg.health = &health;
  cfg.sink_mic = 0;
  MdnController ctl(loop, channel, cfg);
  EXPECT_THROW(ctl.start(), std::logic_error);
  EXPECT_FALSE(ctl.running());

  health.add_mic("m");
  ctl.start();
  loop.schedule_at(net::from_seconds(0.3), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(health.estimator(0).blocks(), ctl.blocks_processed());
}

}  // namespace
}  // namespace mdn::core
