// Property tests on the acoustic channel: linearity, time invariance and
// listener-position consistency over randomised scenes.
#include <gtest/gtest.h>

#include "audio/channel.h"
#include "audio/noise.h"
#include "audio/synth.h"

namespace mdn::audio {
namespace {

constexpr double kSampleRate = 48000.0;

Waveform random_sound(Rng& rng) {
  ToneSpec spec;
  spec.frequency_hz = rng.uniform(200.0, 8000.0);
  spec.amplitude = rng.uniform(0.05, 0.8);
  spec.duration_s = rng.uniform(0.02, 0.3);
  spec.phase_rad = rng.uniform(0.0, 6.28);
  return make_tone(spec, kSampleRate);
}

class ChannelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelProperty, RenderIsSuperpositionOfEmissions) {
  Rng rng(GetParam());
  const int n_emissions = 2 + static_cast<int>(rng.below(6));

  // Build one channel with all emissions and n channels with one each.
  AcousticChannel combined(kSampleRate);
  std::vector<std::unique_ptr<AcousticChannel>> singles;
  for (int i = 0; i < n_emissions; ++i) {
    const double dist = rng.uniform(0.2, 3.0);
    const double start = rng.uniform(0.0, 0.5);
    const Waveform sound = random_sound(rng);

    const auto id =
        combined.add_source(std::string("s").append(std::to_string(i)), dist);
    combined.emit(id, sound, start);

    singles.push_back(std::make_unique<AcousticChannel>(kSampleRate));
    const auto sid = singles.back()->add_source("s", dist);
    singles.back()->emit(sid, sound, start);
  }

  const Waveform whole = combined.render(0.0, 1.0);
  Waveform sum(kSampleRate, whole.size());
  for (const auto& ch : singles) sum.mix_at(ch->render(0.0, 1.0), 0);

  ASSERT_EQ(whole.size(), sum.size());
  for (std::size_t i = 0; i < whole.size(); i += 131) {
    ASSERT_NEAR(whole[i], sum[i], 1e-12) << "sample " << i;
  }
}

TEST_P(ChannelProperty, RenderWindowsTileSeamlessly) {
  // Rendering [0,1) must equal rendering [0,0.5)+[0.5,1) concatenated.
  Rng rng(GetParam() + 1000);
  AcousticChannel ch(kSampleRate);
  for (int i = 0; i < 4; ++i) {
    const auto id = ch.add_source("s", rng.uniform(0.3, 2.0));
    ch.emit(id, random_sound(rng), rng.uniform(0.0, 0.8));
  }
  Rng noise_rng(GetParam());
  ch.add_ambient(make_pink_noise(0.37, 0.05, kSampleRate, noise_rng), true,
                 0.1);

  const Waveform whole = ch.render(0.0, 1.0);
  Waveform tiled = ch.render(0.0, 0.5);
  tiled.append(ch.render(0.5, 0.5));

  ASSERT_EQ(whole.size(), tiled.size());
  for (std::size_t i = 0; i < whole.size(); i += 97) {
    ASSERT_NEAR(whole[i], tiled[i], 1e-12) << "sample " << i;
  }
}

TEST_P(ChannelProperty, OriginRenderEqualsRenderAtOrigin) {
  Rng rng(GetParam() + 2000);
  AcousticChannel ch(kSampleRate);
  for (int i = 0; i < 3; ++i) {
    const auto id = ch.add_source_at(
        "s", {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)});
    ch.emit(id, random_sound(rng), rng.uniform(0.0, 0.3));
  }
  const Waveform a = ch.render(0.0, 0.6);
  const Waveform b = ch.render_at({0.0, 0.0}, 0.0, 0.6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 53) {
    ASSERT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST_P(ChannelProperty, EquidistantListenersHearTheSame) {
  Rng rng(GetParam() + 3000);
  AcousticChannel ch(kSampleRate);
  const auto id = ch.add_source_at("s", {0.0, 0.0});
  ch.emit(id, random_sound(rng), 0.05);

  // Two listeners on the same circle around the source.
  const double r = rng.uniform(0.5, 4.0);
  const double theta = rng.uniform(0.0, 6.28);
  const Waveform a =
      ch.render_at({r * std::cos(theta), r * std::sin(theta)}, 0.0, 0.5);
  const Waveform b = ch.render_at({r, 0.0}, 0.0, 0.5);
  for (std::size_t i = 0; i < a.size(); i += 41) {
    ASSERT_NEAR(a[i], b[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mdn::audio
