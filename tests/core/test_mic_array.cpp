#include "mdn/mic_array.h"

#include <gtest/gtest.h>

#include <array>

#include "audio/audio.h"
#include "mdn/frequency_plan.h"
#include "mp/mp.h"
#include "obs/journal.h"

namespace mdn::core {
namespace {

constexpr double kSampleRate = 48000.0;

// Two racks far apart; one microphone near each; tones from either rack
// reach at least its local microphone.
class MicArrayTest : public ::testing::Test {
 protected:
  MicArrayTest()
      : channel_(kSampleRate),
        plan_({.base_hz = 800.0, .spacing_hz = 20.0}) {
    // Rack A at x=0, rack B at x=20 m.
    dev_a_ = plan_.add_device("rack-a", 1);
    dev_b_ = plan_.add_device("rack-b", 1);
    src_a_ = channel_.add_source_at("spk-a", {0.5, 0.0});
    src_b_ = channel_.add_source_at("spk-b", {20.5, 0.0});

    // Mic 1 at the origin (near rack A), mic 2 at x=20 (near rack B).
    auto cfg1 = config();
    cfg1.microphone.position = {0.0, 0.0};
    mic1_ = std::make_unique<MdnController>(loop_, channel_, cfg1);
    auto cfg2 = config();
    cfg2.microphone.position = {20.0, 0.0};
    mic2_ = std::make_unique<MdnController>(loop_, channel_, cfg2);
  }

  static MdnController::Config config() {
    MdnController::Config cfg;
    cfg.detector.sample_rate = kSampleRate;
    // Tight floor: a tone 20 m away (gain 1/20) must not register.
    cfg.detector.min_amplitude = 0.02;
    return cfg;
  }

  void play(audio::SourceId src, double freq, double at_s) {
    audio::ToneSpec spec;
    spec.frequency_hz = freq;
    spec.duration_s = 0.08;
    spec.amplitude = audio::spl_to_amplitude(80.0);
    channel_.emit(src, audio::make_tone(spec, kSampleRate), at_s);
  }

  void run_until(double t_s) {
    loop_.schedule_at(net::from_seconds(t_s), [this] {
      mic1_->stop();
      mic2_->stop();
    });
    loop_.run();
  }

  net::EventLoop loop_;
  audio::AcousticChannel channel_;
  FrequencyPlan plan_;
  DeviceId dev_a_ = 0, dev_b_ = 0;
  audio::SourceId src_a_ = 0, src_b_ = 0;
  std::unique_ptr<MdnController> mic1_;
  std::unique_ptr<MdnController> mic2_;
};

TEST(PositionMath, Distance) {
  EXPECT_DOUBLE_EQ(audio::distance_m({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(audio::distance_m({1, 1}, {1, 1}), 0.0);
}

TEST(PositionedChannel, RenderAtHearsNearSourceLouder) {
  audio::AcousticChannel ch(kSampleRate);
  const auto src = ch.add_source_at("s", {0.5, 0.0});
  audio::ToneSpec spec;
  spec.frequency_hz = 700.0;
  spec.amplitude = 0.5;
  spec.duration_s = 0.1;
  spec.fade_s = 0.0;
  ch.emit(src, audio::make_tone(spec, kSampleRate), 0.0);

  const double near = ch.render_at({0.0, 0.0}, 0.0, 0.1).peak();
  const double far = ch.render_at({10.5, 0.0}, 0.0, 0.1).peak();
  EXPECT_NEAR(near / far, 20.0, 0.5);
}

TEST(PositionedChannel, AmbientIsPositionIndependent) {
  audio::AcousticChannel ch(kSampleRate);
  audio::Waveform bed(kSampleRate, std::vector<double>(4800, 0.25));
  ch.add_ambient(bed, true, 0.0);
  EXPECT_NEAR(ch.render_at({0, 0}, 0.0, 0.05).peak(),
              ch.render_at({50, 50}, 0.0, 0.05).peak(), 1e-12);
}

TEST(PositionedChannel, SpeedOfSoundDelaysArrival) {
  audio::AcousticChannel ch(kSampleRate);
  ch.set_speed_of_sound(343.0);
  const auto src = ch.add_source_at("s", {34.3, 0.0});  // 100 ms away
  audio::ToneSpec spec;
  spec.frequency_hz = 700.0;
  spec.amplitude = 1.0;
  spec.duration_s = 0.05;
  ch.emit(src, audio::make_tone(spec, kSampleRate), 0.0);

  EXPECT_LT(ch.render_at({0, 0}, 0.0, 0.09).peak(), 1e-9);
  EXPECT_GT(ch.render_at({0, 0}, 0.1, 0.05).peak(), 0.01);
  // A listener at the source hears it immediately.
  EXPECT_GT(ch.render_at({34.3, 0.0}, 0.0, 0.05).peak(), 1.0);
}

TEST(PositionedChannel, CollectTagsFollowsArrivalTime) {
  // Same geometry: the tag must ride the block that hears the tone.
  audio::AcousticChannel ch(kSampleRate);
  ch.set_speed_of_sound(343.0);
  const auto src = ch.add_source_at("s", {34.3, 0.0});  // 100 ms away
  audio::ToneSpec spec;
  spec.frequency_hz = 700.0;
  spec.duration_s = 0.05;
  ch.emit(src, audio::make_tone(spec, kSampleRate), 0.0,
          audio::EmissionTag{7});
  std::array<audio::EmissionTag, 4> tags{};

  EXPECT_EQ(ch.collect_tags({0, 0}, 0.0, 0.09, tags), 0u);
  ASSERT_EQ(ch.collect_tags({0, 0}, 0.1, 0.15, tags), 1u);
  EXPECT_EQ(tags[0].cause, 7u);
  // A listener at the source hears it immediately.
  EXPECT_EQ(ch.collect_tags({34.3, 0.0}, 0.0, 0.05, tags), 1u);
}

TEST_F(MicArrayTest, EachMicHearsItsLocalRack) {
  MicArray array;
  const std::vector<double> watch{plan_.frequency(dev_a_, 0),
                                  plan_.frequency(dev_b_, 0)};
  array.attach(*mic1_, watch, "mic-1");
  array.attach(*mic2_, watch, "mic-2");
  mic1_->start();
  mic2_->start();

  play(src_a_, plan_.frequency(dev_a_, 0), 0.2);
  play(src_b_, plan_.frequency(dev_b_, 0), 0.6);
  run_until(1.2);

  ASSERT_EQ(array.events().size(), 2u);
  EXPECT_EQ(array.microphone_count(), 2u);
  EXPECT_DOUBLE_EQ(array.events()[0].frequency_hz,
                   plan_.frequency(dev_a_, 0));
  EXPECT_EQ(array.events()[0].first_mic, "mic-1");
  EXPECT_EQ(array.events()[1].first_mic, "mic-2");
  // Each tone was out of range of the other microphone.
  EXPECT_EQ(array.events()[0].heard_by, 1u);
  EXPECT_EQ(array.events()[1].heard_by, 1u);
}

TEST_F(MicArrayTest, SharedToneDeduplicated) {
  // A third source midway is heard by both mics; the array reports one
  // merged event heard_by == 2.
  const auto dev_mid = plan_.add_device("rack-mid", 1);
  const auto src_mid = channel_.add_source_at("spk-mid", {10.0, 1.0});

  MicArray array;
  const std::vector<double> watch{plan_.frequency(dev_mid, 0)};
  array.attach(*mic1_, watch, "mic-1");
  array.attach(*mic2_, watch, "mic-2");
  mic1_->start();
  mic2_->start();

  // Loud enough to carry 10 m (gain 1/10): 94 dB -> amplitude 0.1.
  audio::ToneSpec spec;
  spec.frequency_hz = plan_.frequency(dev_mid, 0);
  spec.duration_s = 0.08;
  spec.amplitude = audio::spl_to_amplitude(94.0);
  channel_.emit(src_mid, audio::make_tone(spec, kSampleRate), 0.3);
  run_until(1.0);

  ASSERT_EQ(array.events().size(), 1u);
  EXPECT_EQ(array.events()[0].heard_by, 2u);
  EXPECT_EQ(array.events_heard_by_at_least(2), 1u);
  EXPECT_EQ(array.events_heard_by_at_least(3), 0u);
}

TEST_F(MicArrayTest, HandlerFiresOncePerMergedEvent) {
  const auto dev_mid = plan_.add_device("rack-mid", 1);
  const auto src_mid = channel_.add_source_at("spk-mid", {10.0, 1.0});
  MicArray array;
  int fired = 0;
  array.on_event([&](const MicArray::MergedEvent&) { ++fired; });
  const std::vector<double> watch{plan_.frequency(dev_mid, 0)};
  array.attach(*mic1_, watch, "mic-1");
  array.attach(*mic2_, watch, "mic-2");
  mic1_->start();
  mic2_->start();

  audio::ToneSpec spec;
  spec.frequency_hz = plan_.frequency(dev_mid, 0);
  spec.duration_s = 0.08;
  spec.amplitude = audio::spl_to_amplitude(94.0);
  channel_.emit(src_mid, audio::make_tone(spec, kSampleRate), 0.3);
  run_until(1.0);
  EXPECT_EQ(fired, 1);
}

TEST_F(MicArrayTest, MergedEventIsStampedNoEarlierThanItsDetection) {
  // The merged record is stamped at the detection it cites (block end),
  // not at the block start, so explain() ends on the merged event.
  obs::Journal& journal = obs::Journal::global();
  journal.enable(4096);
  journal.clear();
  MicArray array;
  const std::vector<double> watch{plan_.frequency(dev_a_, 0)};
  array.attach(*mic1_, watch, "mic-1");
  mic1_->start();
  play(src_a_, plan_.frequency(dev_a_, 0), 0.2);
  run_until(0.6);

  ASSERT_EQ(array.events().size(), 1u);
  const obs::CauseId id = array.events()[0].cause;
  obs::JournalRecord merged, detection;
  ASSERT_TRUE(journal.find(id, &merged));
  ASSERT_TRUE(journal.find(merged.cause, &detection));
  EXPECT_EQ(detection.kind, obs::JournalKind::kToneDetected);
  EXPECT_GE(merged.sim_ns, detection.sim_ns);
  EXPECT_EQ(journal.explain(id).back().id, id);
  journal.disable();
  journal.clear();
}

TEST_F(MicArrayTest, DistinctTonesOfSameFrequencyStaySeparate) {
  MicArray array(/*dedup_window_s=*/0.12);
  const std::vector<double> watch{plan_.frequency(dev_a_, 0)};
  array.attach(*mic1_, watch, "mic-1");
  mic1_->start();

  play(src_a_, plan_.frequency(dev_a_, 0), 0.2);
  play(src_a_, plan_.frequency(dev_a_, 0), 0.8);  // well past the window
  run_until(1.4);
  EXPECT_EQ(array.events().size(), 2u);
}

}  // namespace
}  // namespace mdn::core
