// End-to-end integrity through the WAV artifact path: detection results
// must survive 16-bit PCM export/import — i.e. the audio files the
// examples write are faithful evidence, and recordings captured on one
// machine can be analysed on another.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "audio/audio.h"
#include "dsp/dsp.h"
#include "mdn/mdn.h"

namespace mdn {
namespace {

constexpr double kSampleRate = 48000.0;

struct WavRoundTrip : ::testing::Test {
  // One directory per test and process: ctest runs each TEST as its own
  // process, in parallel, and TearDown removes the whole directory.
  void SetUp() override {
    dir = std::filesystem::temp_directory_path() /
          ("mdn_wav_roundtrip_" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
           "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
  }
  void TearDown() override { std::filesystem::remove_all(dir); }

  std::string path(const char* name) const { return (dir / name).string(); }

  std::filesystem::path dir;
};

TEST_F(WavRoundTrip, ToneEventsSurviveExport) {
  // Synthesise a 3-tone sequence, export, re-import, extract events.
  audio::Waveform rec = audio::make_silence(0.2, kSampleRate);
  for (double freq : {600.0, 800.0, 1000.0}) {
    audio::ToneSpec spec;
    spec.frequency_hz = freq;
    spec.amplitude = 0.3;
    spec.duration_s = 0.1;
    rec.append(audio::make_tone(spec, kSampleRate));
    rec.append_silence(0.2);
  }
  audio::write_wav(path("tones.wav"), rec);
  const audio::Waveform loaded = audio::read_wav(path("tones.wav"));

  core::ToneDetectorConfig cfg;
  cfg.sample_rate = kSampleRate;
  core::ToneDetector det(cfg);
  const std::vector<double> watch{600.0, 800.0, 1000.0};
  const auto original = extract_tone_events(rec, det, watch, 0.05);
  const auto replayed = extract_tone_events(loaded, det, watch, 0.05);

  ASSERT_EQ(original.size(), 3u);
  ASSERT_EQ(replayed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(replayed[i].frequency_hz, original[i].frequency_hz);
    EXPECT_NEAR(replayed[i].time_s, original[i].time_s, 1e-9);
    EXPECT_NEAR(replayed[i].amplitude, original[i].amplitude, 0.01);
  }
}

TEST_F(WavRoundTrip, FanVerdictSurvivesExport) {
  // Calibrate on live audio, classify from a WAV re-import: the Fig 7
  // verdicts must not flip under 16-bit quantisation.
  const auto room = audio::generate_office(6.0, kSampleRate, 0.02, 31);
  audio::FanSpec fan;
  fan.rpm = 4200.0;
  fan.blades = 7;
  fan.seed = 11;

  const auto record = [&](bool on, double dur, std::uint64_t seed) {
    audio::Waveform mix(kSampleRate,
                        static_cast<std::size_t>(dur * kSampleRate));
    mix.mix_at(room.slice(0, mix.size()), 0);
    if (on) {
      auto spec = fan;
      spec.seed = seed;
      mix.mix_at(audio::generate_fan(spec, dur, kSampleRate), 0);
    }
    return mix;
  };

  core::FanFailureDetector det(kSampleRate);
  det.calibrate(record(true, 4.0, 11));

  audio::write_wav(path("on.wav"), record(true, 0.5, 77));
  audio::write_wav(path("off.wav"), record(false, 0.5, 0));

  EXPECT_FALSE(det.is_failed(audio::read_wav(path("on.wav"))));
  EXPECT_TRUE(det.is_failed(audio::read_wav(path("off.wav"))));
}

TEST_F(WavRoundTrip, MelSpectrogramStableUnderQuantisation) {
  const audio::Waveform song = audio::generate_song(1.0, kSampleRate);
  audio::write_wav(path("song.wav"), song);
  const audio::Waveform loaded = audio::read_wav(path("song.wav"));

  const auto lin_a = dsp::stft(song.samples(), kSampleRate,
                               {.fft_size = 2048, .hop = 1024});
  const auto lin_b = dsp::stft(loaded.samples(), kSampleRate,
                               {.fft_size = 2048, .hop = 1024});
  const auto mel_a = dsp::mel_spectrogram(lin_a, 24, 100.0, 8000.0);
  const auto mel_b = dsp::mel_spectrogram(lin_b, 24, 100.0, 8000.0);
  ASSERT_EQ(mel_a.frames.size(), mel_b.frames.size());
  for (std::size_t f = 0; f < mel_a.frames.size(); f += 7) {
    // The dominant band must be identical frame by frame.
    EXPECT_EQ(mel_a.argmax_band(f), mel_b.argmax_band(f)) << "frame " << f;
  }
}

}  // namespace
}  // namespace mdn
