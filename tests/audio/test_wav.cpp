#include "audio/wav.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "audio/synth.h"

namespace mdn::audio {
namespace {

class WavTest : public ::testing::Test {
 protected:
  // One directory per test and process: ctest runs each TEST as its own
  // process, in parallel, and TearDown removes the whole directory.
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mdn_wav_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(WavTest, RoundTripPreservesSignal) {
  ToneSpec spec;
  spec.frequency_hz = 440.0;
  spec.amplitude = 0.5;
  spec.duration_s = 0.25;
  const Waveform original = make_tone(spec, 48000.0);
  write_wav(path("tone.wav"), original);
  const Waveform loaded = read_wav(path("tone.wav"));

  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 48000.0);
  for (std::size_t i = 0; i < loaded.size(); i += 97) {
    // 16-bit quantisation: within one LSB.
    EXPECT_NEAR(loaded[i], original[i], 1.0 / 32767.0 + 1e-9);
  }
}

TEST_F(WavTest, ClampsOutOfRangeSamples) {
  Waveform w(8000.0, std::vector<double>{2.0, -3.0, 0.5});
  write_wav(path("clip.wav"), w);
  const Waveform loaded = read_wav(path("clip.wav"));
  EXPECT_NEAR(loaded[0], 1.0, 1e-4);
  EXPECT_NEAR(loaded[1], -1.0, 1e-4);
  EXPECT_NEAR(loaded[2], 0.5, 1e-4);
}

TEST_F(WavTest, EmptyWaveformRoundTrips) {
  Waveform w(44100.0);
  write_wav(path("empty.wav"), w);
  const Waveform loaded = read_wav(path("empty.wav"));
  EXPECT_TRUE(loaded.empty());
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 44100.0);
}

TEST_F(WavTest, MissingFileThrows) {
  EXPECT_THROW(read_wav(path("absent.wav")), std::runtime_error);
}

TEST_F(WavTest, GarbageFileThrows) {
  std::ofstream out(path("garbage.wav"), std::ios::binary);
  out << "this is not a wav file at all, not even close";
  out.close();
  EXPECT_THROW(read_wav(path("garbage.wav")), std::runtime_error);
}

TEST_F(WavTest, TruncatedHeaderThrows) {
  std::ofstream out(path("short.wav"), std::ios::binary);
  out << "RIFF";
  out.close();
  EXPECT_THROW(read_wav(path("short.wav")), std::runtime_error);
}

TEST_F(WavTest, UnwritablePathThrows) {
  EXPECT_THROW(write_wav("/nonexistent_dir_xyz/out.wav",
                         Waveform(8000.0, std::size_t{10})),
               std::runtime_error);
}

TEST_F(WavTest, StereoDownmixesToMono) {
  // Hand-build a 2-channel file: L = 0.5, R = -0.5 -> mono 0.0;
  // then L = 0.5, R = 0.5 -> mono 0.5.
  std::vector<std::uint8_t> b;
  const auto put = [&](std::initializer_list<int> bytes) {
    for (int x : bytes) b.push_back(static_cast<std::uint8_t>(x));
  };
  const auto put16 = [&](std::int16_t v) {
    b.push_back(static_cast<std::uint8_t>(v & 0xff));
    b.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  };
  const auto put32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      b.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
    }
  };
  put({'R', 'I', 'F', 'F'});
  put32(36 + 8);
  put({'W', 'A', 'V', 'E'});
  put({'f', 'm', 't', ' '});
  put32(16);
  put16(1);       // PCM
  put16(2);       // stereo
  put32(8000);    // rate
  put32(8000 * 4);
  put16(4);
  put16(16);
  put({'d', 'a', 't', 'a'});
  put32(8);  // two stereo frames
  put16(16383);   // L ~0.5
  put16(-16383);  // R ~-0.5
  put16(16383);
  put16(16383);

  std::ofstream out(path("stereo.wav"), std::ios::binary);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  out.close();

  const Waveform mono = read_wav(path("stereo.wav"));
  ASSERT_EQ(mono.size(), 2u);
  EXPECT_NEAR(mono[0], 0.0, 1e-4);
  EXPECT_NEAR(mono[1], 0.5, 1e-3);
  EXPECT_DOUBLE_EQ(mono.sample_rate(), 8000.0);
}

}  // namespace
}  // namespace mdn::audio
