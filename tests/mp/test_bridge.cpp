#include "mp/bridge.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "audio/synth.h"
#include "dsp/fft.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"
#include "mp/tone_bank.h"
#include "obs/metrics.h"

namespace mdn::mp {
namespace {

constexpr double kSampleRate = 48000.0;

std::uint64_t tones_synthesised() {
  return obs::Registry::global().counter("mp/bridge/tones_synthesised").value();
}

std::vector<double> samples_of(const audio::Waveform& w) {
  return {w.samples().begin(), w.samples().end()};
}

MpMessage beep(double frequency_hz) {
  MpMessage msg;
  msg.frequency_hz = frequency_hz;
  msg.duration_s = 0.05;
  msg.intensity_db_spl = 94.0;
  return msg;
}

struct BridgeFixture : ::testing::Test {
  BridgeFixture()
      : channel(kSampleRate),
        source(channel.add_source("pi", 1.0)),
        bridge(loop, channel, source, /*processing_delay=*/0) {}

  double tone_amplitude_at(double freq, double start_s, double dur_s) {
    const auto w = channel.render(start_s, dur_s);
    const auto window = dsp::make_window(dsp::WindowKind::kHann, w.size());
    const auto spec = dsp::amplitude_spectrum(w.samples(), window);
    const auto bin = dsp::frequency_bin(freq, w.size(), kSampleRate);
    double best = 0.0;
    for (std::size_t k = bin >= 2 ? bin - 2 : 0;
         k <= bin + 2 && k < spec.size(); ++k) {
      best = std::max(best, spec[k]);
    }
    return best;
  }

  net::EventLoop loop;
  audio::AcousticChannel channel;
  audio::SourceId source;
  PiSpeakerBridge bridge;
};

TEST_F(BridgeFixture, PlayEmitsToneAtRequestedFrequency) {
  MpMessage msg;
  msg.frequency_hz = 880.0;
  msg.duration_s = 0.1;
  msg.intensity_db_spl = 94.0;  // amplitude 1.0 at 1 m
  bridge.play(msg);
  EXPECT_EQ(bridge.played(), 1u);
  EXPECT_NEAR(tone_amplitude_at(880.0, 0.0, 0.1), 1.0, 0.1);
  EXPECT_LT(tone_amplitude_at(2000.0, 0.0, 0.1), 0.01);
}

TEST_F(BridgeFixture, IntensityControlsAmplitude) {
  MpMessage quiet;
  quiet.frequency_hz = 700.0;
  quiet.duration_s = 0.1;
  quiet.intensity_db_spl = 74.0;  // 20 dB below reference -> 0.1
  bridge.play(quiet);
  EXPECT_NEAR(tone_amplitude_at(700.0, 0.0, 0.1), 0.1, 0.02);
}

TEST_F(BridgeFixture, ProcessingDelayShiftsTone) {
  PiSpeakerBridge slow(loop, channel, source,
                       /*processing_delay=*/50 * net::kMillisecond);
  MpMessage msg;
  msg.frequency_hz = 600.0;
  msg.duration_s = 0.04;
  msg.intensity_db_spl = 94.0;
  slow.play(msg);
  // Nothing during the Pi's processing window...
  EXPECT_LT(tone_amplitude_at(600.0, 0.0, 0.04), 0.01);
  // ...tone appears afterwards.
  EXPECT_GT(tone_amplitude_at(600.0, 0.05, 0.04), 0.5);
}

TEST_F(BridgeFixture, WirePathRoundTrips) {
  MpMessage msg;
  msg.frequency_hz = 1234.0;
  msg.duration_s = 0.05;
  msg.intensity_db_spl = 94.0;
  bridge.on_wire(marshal(msg));
  EXPECT_EQ(bridge.played(), 1u);
  EXPECT_EQ(bridge.malformed(), 0u);
  EXPECT_GT(tone_amplitude_at(1234.0, 0.0, 0.05), 0.5);
}

TEST_F(BridgeFixture, MalformedWireCountedAndIgnored) {
  auto wire = marshal(MpMessage{});
  wire[6] ^= 0xff;  // corrupt frequency -> checksum fails
  bridge.on_wire(wire);
  EXPECT_EQ(bridge.played(), 0u);
  EXPECT_EQ(bridge.malformed(), 1u);
  EXPECT_EQ(bridge.last_error(), MpError::kBadChecksum);
}

TEST_F(BridgeFixture, EmitterMarshalsThroughBridge) {
  MpEmitter emitter(loop, bridge, /*min_gap=*/0);
  EXPECT_TRUE(emitter.emit(500.0, 0.05, 94.0));
  EXPECT_EQ(emitter.emitted(), 1u);
  EXPECT_EQ(bridge.played(), 1u);
  EXPECT_GT(tone_amplitude_at(500.0, 0.0, 0.05), 0.5);
}

TEST_F(BridgeFixture, EmitterEnforcesMinGap) {
  MpEmitter emitter(loop, bridge, /*min_gap=*/100 * net::kMillisecond);
  EXPECT_TRUE(emitter.emit(500.0, 0.03, 70.0));
  EXPECT_FALSE(emitter.emit(500.0, 0.03, 70.0));  // same instant
  EXPECT_EQ(emitter.suppressed(), 1u);

  loop.run_until(50 * net::kMillisecond);
  EXPECT_FALSE(emitter.emit(500.0, 0.03, 70.0));  // still inside the gap

  loop.run_until(150 * net::kMillisecond);
  EXPECT_TRUE(emitter.emit(500.0, 0.03, 70.0));
  EXPECT_EQ(emitter.emitted(), 2u);
  EXPECT_EQ(emitter.suppressed(), 2u);
}

TEST_F(BridgeFixture, EmitterSequenceNumbersAdvance) {
  MpEmitter emitter(loop, bridge, 0);
  emitter.emit(500.0, 0.01, 70.0);
  emitter.emit(600.0, 0.01, 70.0);
  // Two distinct tones scheduled (sequence uniqueness is internal; we
  // assert both got through).
  EXPECT_EQ(bridge.played(), 2u);
}

TEST_F(BridgeFixture, DistanceAttenuatesBridgeOutput) {
  const auto far_source = channel.add_source("far-pi", 2.0);
  PiSpeakerBridge far_bridge(loop, channel, far_source, 0);
  MpMessage msg;
  msg.frequency_hz = 750.0;
  msg.duration_s = 0.1;
  msg.intensity_db_spl = 94.0;
  far_bridge.play(msg);
  EXPECT_NEAR(tone_amplitude_at(750.0, 0.0, 0.1), 0.5, 0.05);
}

audio::ToneSpec odd_spec() {
  audio::ToneSpec spec;
  spec.frequency_hz = 1234.5;
  spec.duration_s = 0.03;
  spec.amplitude = 0.3;
  spec.phase_rad = 0.25;
  spec.fade_s = 0.01;
  return spec;
}

TEST(ToneBank, TemplateIsMakeToneOutput) {
  ToneBank bank;
  const audio::ToneSpec spec = odd_spec();
  const auto t = bank.tone(spec, kSampleRate);
  const audio::Waveform ref = audio::make_tone(spec, kSampleRate);
  EXPECT_EQ(t->sample_rate(), ref.sample_rate());
  EXPECT_EQ(samples_of(*t), samples_of(ref));
  EXPECT_EQ(bank.tone(spec, kSampleRate), t) << "a hit shares, not copies";
  EXPECT_EQ(bank.size(), 1u);
}

TEST(ToneBank, EveryKeyFieldSelectsItsOwnTemplate) {
  ToneBank bank;
  const audio::ToneSpec base = odd_spec();
  const auto base_tone = bank.tone(base, kSampleRate);
  std::vector<std::pair<audio::ToneSpec, double>> variants(
      6, {base, kSampleRate});
  variants[0].first.frequency_hz += 20.0;
  variants[1].first.duration_s += 0.01;
  variants[2].first.amplitude *= 0.5;
  variants[3].first.phase_rad += 0.5;
  variants[4].first.fade_s *= 0.5;
  variants[5].second = 24000.0;
  for (const auto& [spec, rate] : variants) {
    const auto t = bank.tone(spec, rate);
    EXPECT_NE(t, base_tone);
    EXPECT_NE(samples_of(*t), samples_of(*base_tone));
    EXPECT_EQ(samples_of(*t), samples_of(audio::make_tone(spec, rate)));
  }
  EXPECT_EQ(bank.size(), 1u + variants.size());
}

TEST(ToneBank, FailedSynthesisLeavesNoTemplate) {
  ToneBank bank;
  EXPECT_THROW(bank.tone(odd_spec(), 0.0), std::invalid_argument);
  EXPECT_EQ(bank.size(), 0u);
  EXPECT_THROW(bank.tone(odd_spec(), 0.0), std::invalid_argument);
}

TEST_F(BridgeFixture, SharedBankSynthesisesOnce) {
  ToneBank bank;
  PiSpeakerBridge a(loop, channel, source, 0, &bank);
  PiSpeakerBridge b(loop, channel, channel.add_source("pi2", 2.0), 0, &bank);
  const std::uint64_t before = tones_synthesised();
  a.play(beep(900.0));
  b.play(beep(900.0));
  a.play(beep(900.0));
  EXPECT_EQ(tones_synthesised() - before, 1u);
  EXPECT_EQ(bank.size(), 1u);
  EXPECT_EQ(a.played() + b.played(), 3u);
}

TEST_F(BridgeFixture, OwnBanksSynthesiseSeparately) {
  PiSpeakerBridge other(loop, channel, channel.add_source("pi2", 2.0), 0);
  const std::uint64_t before = tones_synthesised();
  bridge.play(beep(900.0));
  other.play(beep(900.0));
  bridge.play(beep(900.0));
  EXPECT_EQ(tones_synthesised() - before, 2u);
}

TEST(BridgeLifetime, ToneOutlivesBridgeAndBank) {
  net::EventLoop loop;
  audio::AcousticChannel channel(kSampleRate);
  const auto spk = channel.add_source("pi", 1.0);
  {
    auto bank = std::make_unique<ToneBank>();
    PiSpeakerBridge shared(loop, channel, spk, 0, bank.get());
    PiSpeakerBridge owning(loop, channel, spk, 0);
    shared.play(beep(900.0));
    owning.play(beep(900.0));
  }
  // Both banks are gone; the channel's emissions keep their tones alive.
  audio::Waveform expected = audio::make_tone(
      {900.0, 0.05, 1.0, 0.0, 0.015}, kSampleRate);
  expected.scale(2.0);
  EXPECT_EQ(samples_of(channel.render(0.0, 0.05)), samples_of(expected));
}

TEST(BridgeLifetime, BridgeIsNeitherCopyableNorMovable) {
  EXPECT_FALSE(std::is_copy_constructible_v<PiSpeakerBridge>);
  EXPECT_FALSE(std::is_copy_assignable_v<PiSpeakerBridge>);
  EXPECT_FALSE(std::is_move_constructible_v<PiSpeakerBridge>);
  EXPECT_FALSE(std::is_move_assignable_v<PiSpeakerBridge>);
}

}  // namespace
}  // namespace mdn::mp
