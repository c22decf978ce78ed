#include "audio/channel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "audio/synth.h"

namespace mdn::audio {
namespace {

Waveform tone(double freq, double amp, double dur, double sr) {
  ToneSpec spec;
  spec.frequency_hz = freq;
  spec.amplitude = amp;
  spec.duration_s = dur;
  spec.fade_s = 0.0;
  return make_tone(spec, sr);
}

TEST(Spl, ConventionAnchors) {
  EXPECT_NEAR(spl_to_amplitude(94.0), 1.0, 1e-12);
  EXPECT_NEAR(spl_to_amplitude(74.0), 0.1, 1e-12);
  EXPECT_NEAR(amplitude_to_spl(1.0), 94.0, 1e-12);
  EXPECT_NEAR(amplitude_to_spl(0.01), 54.0, 1e-9);
}

TEST(Spl, RoundTrip) {
  for (double db : {30.0, 50.0, 70.0, 85.0, 94.0, 110.0}) {
    EXPECT_NEAR(amplitude_to_spl(spl_to_amplitude(db)), db, 1e-9);
  }
}

TEST(Channel, RequiresPositiveSampleRate) {
  EXPECT_THROW(AcousticChannel(0.0), std::invalid_argument);
}

TEST(Channel, EmissionAppearsAtScheduledTime) {
  AcousticChannel ch(48000.0);
  const auto src = ch.add_source("s", 1.0);
  ch.emit(src, tone(1000.0, 0.5, 0.1, 48000.0), 0.5);

  const Waveform before = ch.render(0.0, 0.4);
  EXPECT_DOUBLE_EQ(before.peak(), 0.0);
  const Waveform during = ch.render(0.5, 0.1);
  EXPECT_NEAR(during.peak(), 0.5, 1e-6);
  const Waveform after = ch.render(0.7, 0.2);
  EXPECT_DOUBLE_EQ(after.peak(), 0.0);
}

TEST(Channel, DistanceAttenuationIsInverse) {
  AcousticChannel ch(48000.0);
  const auto near = ch.add_source("near", 1.0);
  const auto far = ch.add_source("far", 4.0);
  ch.emit(near, tone(500.0, 0.4, 0.1, 48000.0), 0.0);
  ch.emit(far, tone(500.0, 0.4, 0.1, 48000.0), 0.2);

  const double near_peak = ch.render(0.0, 0.1).peak();
  const double far_peak = ch.render(0.2, 0.1).peak();
  EXPECT_NEAR(near_peak / far_peak, 4.0, 0.01);
}

TEST(Channel, MinimumDistanceClamped) {
  AcousticChannel ch(48000.0);
  const auto glued = ch.add_source("glued", 0.0);
  ch.emit(glued, tone(500.0, 0.1, 0.05, 48000.0), 0.0);
  // 0 m clamps to 0.1 m -> gain 10.
  EXPECT_NEAR(ch.render(0.0, 0.05).peak(), 1.0, 0.01);
}

TEST(Channel, SimultaneousEmissionsSuperpose) {
  AcousticChannel ch(48000.0);
  const auto a = ch.add_source("a", 1.0);
  const auto b = ch.add_source("b", 1.0);
  ch.emit(a, tone(600.0, 0.3, 0.2, 48000.0), 0.0);
  ch.emit(b, tone(600.0, 0.3, 0.2, 48000.0), 0.0);  // same phase
  EXPECT_NEAR(ch.render(0.0, 0.2).peak(), 0.6, 1e-6);
}

TEST(Channel, RenderWindowCutsEmission) {
  AcousticChannel ch(48000.0);
  const auto src = ch.add_source("s", 1.0);
  ch.emit(src, tone(100.0, 0.5, 1.0, 48000.0), 0.0);
  const Waveform mid = ch.render(0.4, 0.2);
  EXPECT_EQ(mid.size(), 9600u);
  EXPECT_GT(mid.rms(), 0.2);
}

TEST(Channel, AmbientLoopsForever) {
  AcousticChannel ch(48000.0);
  Waveform bed(48000.0, std::vector<double>(4800, 0.25));  // 100 ms DC bed
  ch.add_ambient(bed, /*loop=*/true, 0.0);
  const Waveform later = ch.render(10.0, 0.05);
  EXPECT_NEAR(later.peak(), 0.25, 1e-12);
}

TEST(Channel, NonLoopingAmbientEnds) {
  AcousticChannel ch(48000.0);
  Waveform bed(48000.0, std::vector<double>(4800, 0.25));
  ch.add_ambient(bed, /*loop=*/false, 0.0);
  EXPECT_DOUBLE_EQ(ch.render(1.0, 0.05).peak(), 0.0);
}

TEST(Channel, ClearEmissionsKeepsAmbient) {
  AcousticChannel ch(48000.0);
  const auto src = ch.add_source("s", 1.0);
  ch.emit(src, tone(500.0, 0.5, 0.1, 48000.0), 0.0);
  Waveform bed(48000.0, std::vector<double>(480, 0.1));
  ch.add_ambient(bed, true, 0.0);
  ch.clear_emissions();
  const Waveform w = ch.render(0.0, 0.05);
  EXPECT_NEAR(w.peak(), 0.1, 1e-12);
}

TEST(Channel, LastEmissionEndTracksSchedule) {
  AcousticChannel ch(48000.0);
  const auto src = ch.add_source("s", 1.0);
  EXPECT_DOUBLE_EQ(ch.last_emission_end_s(), 0.0);
  ch.emit(src, tone(500.0, 0.5, 0.25, 48000.0), 1.0);
  EXPECT_NEAR(ch.last_emission_end_s(), 1.25, 1e-9);
}

TEST(Channel, SampleRateMismatchThrows) {
  AcousticChannel ch(48000.0);
  const auto src = ch.add_source("s", 1.0);
  EXPECT_THROW(ch.emit(src, tone(500.0, 0.5, 0.1, 16000.0), 0.0),
               std::invalid_argument);
  EXPECT_THROW(ch.add_ambient(tone(500.0, 0.5, 0.1, 16000.0)),
               std::invalid_argument);
}

TEST(Channel, SharedEmissionIsHeldNotCopied) {
  AcousticChannel ch(48000.0);
  const auto near = ch.add_source("near", 1.0);
  const auto far = ch.add_source("far", 2.0);
  auto sound =
      std::make_shared<const Waveform>(tone(700.0, 0.4, 0.1, 48000.0));
  const Waveform* held = sound.get();
  ch.emit(near, sound, 0.0);
  ch.emit(far, sound, 0.2, EmissionTag{7, 700.0});
  EXPECT_EQ(sound.use_count(), 3);
  EXPECT_EQ(sound.get(), held);

  // The caller's handle goes; the channel's emissions keep the tone.
  sound.reset();
  EXPECT_NEAR(ch.render(0.0, 0.1).peak(), 0.4, 1e-6);
  EXPECT_NEAR(ch.render(0.2, 0.1).peak(), 0.2, 1e-6);
  EXPECT_NEAR(ch.last_emission_end_s(), 0.3, 1e-9);
  EmissionTag tags[2];
  EXPECT_EQ(ch.collect_tags(Position{}, 0.25, 0.26, tags), 1u);
  EXPECT_EQ(tags[0].cause, 7u);
}

TEST(Channel, SharedEmissionRendersLikeACopy) {
  // One template behind many emissions must mix exactly as many copies
  // do: same samples, same summation order.
  const Waveform sound = tone(640.0, 0.3, 0.05, 48000.0);
  const auto shared = std::make_shared<const Waveform>(sound);
  AcousticChannel by_ref(48000.0);
  AcousticChannel by_copy(48000.0);
  for (AcousticChannel* ch : {&by_ref, &by_copy}) {
    ch->add_source("a", 0.7);
    ch->add_source("b", 1.9);
  }
  for (int i = 0; i < 6; ++i) {
    const SourceId src = static_cast<SourceId>(i % 2);
    const double start = 0.013 * i;
    by_ref.emit(src, shared, start);
    by_copy.emit(src, sound, start);
  }
  const Waveform a = by_ref.render(0.0, 0.15);
  const Waveform b = by_copy.render(0.0, 0.15);
  EXPECT_EQ(std::vector<double>(a.samples().begin(), a.samples().end()),
            std::vector<double>(b.samples().begin(), b.samples().end()));
}

TEST(Channel, NullSharedEmissionThrows) {
  AcousticChannel ch(48000.0);
  const auto src = ch.add_source("s", 1.0);
  EXPECT_THROW(ch.emit(src, std::shared_ptr<const Waveform>{}, 0.0),
               std::invalid_argument);
}

TEST(Channel, SourceNamesStored) {
  AcousticChannel ch(48000.0);
  const auto s1 = ch.add_source("switch-1", 1.0);
  const auto s2 = ch.add_source("switch-2", 2.0);
  EXPECT_EQ(ch.source_name(s1), "switch-1");
  EXPECT_EQ(ch.source_name(s2), "switch-2");
  EXPECT_EQ(ch.source_count(), 2u);
}

TEST(Microphone, AddsNoiseFloor) {
  AcousticChannel ch(48000.0);
  MicrophoneSpec spec;
  spec.noise_floor_rms = 0.01;
  spec.adc_bits = 0;
  Microphone mic(spec, 48000.0);
  const Waveform rec = mic.record(ch, 0.0, 1.0);  // silence + self-noise
  EXPECT_NEAR(rec.rms(), 0.01, 0.002);
}

TEST(Microphone, QuantisationSnapsToLsb) {
  AcousticChannel ch(48000.0);
  MicrophoneSpec spec;
  spec.noise_floor_rms = 0.0;
  spec.adc_bits = 8;
  spec.clip_level = 1.0;
  Microphone mic(spec, 48000.0);
  const auto src = ch.add_source("s", 1.0);
  ch.emit(src, tone(500.0, 0.5, 0.1, 48000.0), 0.0);
  const Waveform rec = mic.record(ch, 0.0, 0.1);
  const double lsb = 1.0 / 128.0;
  for (std::size_t i = 0; i < rec.size(); i += 100) {
    const double ratio = rec[i] / lsb;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
  }
}

TEST(Microphone, ClipsAtFrontEndLimit) {
  AcousticChannel ch(48000.0);
  MicrophoneSpec spec;
  spec.noise_floor_rms = 0.0;
  spec.adc_bits = 0;
  spec.clip_level = 0.2;
  Microphone mic(spec, 48000.0);
  const auto src = ch.add_source("s", 0.1);  // 10x gain from proximity
  ch.emit(src, tone(500.0, 0.5, 0.1, 48000.0), 0.0);
  const Waveform rec = mic.record(ch, 0.0, 0.1);
  EXPECT_NEAR(rec.peak(), 0.2, 1e-12);
}

TEST(Microphone, GainApplied) {
  AcousticChannel ch(48000.0);
  MicrophoneSpec spec;
  spec.gain = 2.0;
  spec.noise_floor_rms = 0.0;
  spec.adc_bits = 0;
  Microphone mic(spec, 48000.0);
  const auto src = ch.add_source("s", 1.0);
  ch.emit(src, tone(500.0, 0.3, 0.1, 48000.0), 0.0);
  EXPECT_NEAR(mic.record(ch, 0.0, 0.1).peak(), 0.6, 1e-9);
}

TEST(Microphone, RateMismatchThrows) {
  AcousticChannel ch(48000.0);
  Microphone mic(MicrophoneSpec{}, 16000.0);
  EXPECT_THROW(mic.record(ch, 0.0, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace mdn::audio
