#include "mdn/tone_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "audio/channel.h"
#include "audio/noise.h"
#include "audio/synth.h"

namespace mdn::core {
namespace {

constexpr double kSampleRate = 48000.0;

audio::Waveform tone(double freq, double amp, double dur,
                     double fade = 0.002) {
  audio::ToneSpec spec;
  spec.frequency_hz = freq;
  spec.amplitude = amp;
  spec.duration_s = dur;
  spec.fade_s = fade;
  return audio::make_tone(spec, kSampleRate);
}

bool has_tone_near(const std::vector<DetectedTone>& tones, double freq,
                   double tol = 10.0) {
  for (const auto& t : tones) {
    if (std::abs(t.frequency_hz - freq) <= tol) return true;
  }
  return false;
}

TEST(ToneDetector, DetectsSingleToneIn50msBlock) {
  ToneDetector det;
  const auto block = tone(700.0, 0.1, 0.05);
  const auto tones = det.detect(block.samples());
  ASSERT_FALSE(tones.empty());
  EXPECT_TRUE(has_tone_near(tones, 700.0, 5.0));
  EXPECT_NEAR(tones.front().amplitude, 0.1, 0.03);
}

TEST(ToneDetector, SilenceYieldsNothing) {
  ToneDetector det;
  const auto silence = audio::make_silence(0.05, kSampleRate);
  EXPECT_TRUE(det.detect(silence.samples()).empty());
}

TEST(ToneDetector, EmptyBlockYieldsNothing) {
  ToneDetector det;
  EXPECT_TRUE(det.detect({}).empty());
}

TEST(ToneDetector, SubThresholdToneIgnored) {
  ToneDetectorConfig cfg;
  cfg.min_amplitude = 0.05;
  ToneDetector det(cfg);
  const auto quiet = tone(700.0, 0.01, 0.05);
  EXPECT_TRUE(det.detect(quiet.samples()).empty());
}

TEST(ToneDetector, PaperMinimumToneDurationDetectable) {
  // §3: "the shortest possible length generated in our testbed was
  // approximately 30ms".  A 30 ms tone inside a 50 ms block must be
  // detectable.
  ToneDetector det;
  audio::Waveform block = tone(900.0, 0.1, 0.03);
  block.append_silence(0.02);
  EXPECT_TRUE(has_tone_near(det.detect(block.samples()), 900.0));
}

TEST(ToneDetector, TwoSimultaneousTonesFromDifferentDevices) {
  // Different devices' sets are >= 20 Hz apart, but concurrent tones in a
  // 50 ms block need more separation (window main lobe); 100 Hz is the
  // realistic concurrent case (different devices, different regions).
  ToneDetector det;
  audio::Waveform mix = tone(700.0, 0.1, 0.05);
  mix.mix_at(tone(1100.0, 0.1, 0.05), 0);
  const auto tones = det.detect(mix.samples());
  EXPECT_TRUE(has_tone_near(tones, 700.0));
  EXPECT_TRUE(has_tone_near(tones, 1100.0));
}

TEST(ToneDetector, TwentyHzSeparationResolvedWithLongWindow) {
  // The §3 separation finding, reproduced with a 16k-sample window.
  ToneDetectorConfig cfg;
  cfg.fft_size = 16384;
  ToneDetector det(cfg);
  audio::Waveform mix = tone(740.0, 0.1, 0.35);
  mix.mix_at(tone(760.0, 0.1, 0.35), 0);
  const auto tones = det.detect(mix.samples());
  EXPECT_TRUE(has_tone_near(tones, 740.0, 6.0));
  EXPECT_TRUE(has_tone_near(tones, 760.0, 6.0));
}

TEST(ToneDetector, RobustToWhiteNoise) {
  ToneDetector det;
  audio::Rng rng(5);
  audio::Waveform block = tone(700.0, 0.1, 0.05);
  block.mix_at(audio::make_white_noise(0.05, 0.02, kSampleRate, rng), 0);
  EXPECT_TRUE(has_tone_near(det.detect(block.samples()), 700.0));
}

TEST(ToneDetector, NoFalsePositivesOnModerateNoise) {
  ToneDetectorConfig cfg;
  cfg.min_amplitude = 5e-3;
  ToneDetector det(cfg);
  audio::Rng rng(6);
  const auto noise =
      audio::make_white_noise(0.05, 1e-3, kSampleRate, rng);
  EXPECT_TRUE(det.detect(noise.samples()).empty());
}

TEST(ToneDetector, SetLevelsMeasuresKnownFrequencies) {
  ToneDetector det;
  audio::Waveform mix = tone(500.0, 0.2, 0.1);
  mix.mix_at(tone(700.0, 0.05, 0.1), 0);
  const std::vector<double> watch{500.0, 600.0, 700.0};
  const auto levels = det.set_levels(mix.samples(), watch);
  ASSERT_EQ(levels.size(), 3u);
  EXPECT_NEAR(levels[0], 0.2, 0.03);
  EXPECT_LT(levels[1], 0.02);
  EXPECT_NEAR(levels[2], 0.05, 0.02);
}

TEST(ToneDetector, PresentMatchesTolerance) {
  ToneDetector det;
  const auto block = tone(705.0, 0.1, 0.05);
  EXPECT_TRUE(det.present(block.samples(), 700.0));   // within 10 Hz
  EXPECT_FALSE(det.present(block.samples(), 740.0));  // outside
}

TEST(ToneDetector, InvalidConfigThrows) {
  ToneDetectorConfig bad;
  bad.sample_rate = 0.0;
  EXPECT_THROW(ToneDetector{bad}, std::invalid_argument);
  ToneDetectorConfig bad2;
  bad2.fft_size = 0;
  EXPECT_THROW(ToneDetector{bad2}, std::invalid_argument);
}

TEST(ToneEvents, OnsetSemanticsOneEventPerBurst) {
  ToneDetector det;
  // 200 ms tone inside 1 s recording, scanned in 50 ms hops: one event.
  audio::Waveform rec = audio::make_silence(0.3, kSampleRate);
  rec.append(tone(800.0, 0.1, 0.2));
  rec.append_silence(0.5);

  const std::vector<double> watch{800.0};
  const auto events = extract_tone_events(rec, det, watch, 0.05);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time_s, 0.3, 0.06);
  EXPECT_DOUBLE_EQ(events[0].frequency_hz, 800.0);
}

TEST(ToneEvents, SeparateBurstsYieldSeparateEvents) {
  ToneDetector det;
  audio::Waveform rec = tone(800.0, 0.1, 0.06);
  rec.append_silence(0.2);
  rec.append(tone(800.0, 0.1, 0.06));
  rec.append_silence(0.2);

  const std::vector<double> watch{800.0};
  const auto events = extract_tone_events(rec, det, watch, 0.05);
  EXPECT_EQ(events.size(), 2u);
}

TEST(ToneEvents, MultipleWatchedFrequenciesIndependent) {
  ToneDetector det;
  audio::Waveform rec = tone(600.0, 0.1, 0.06);
  rec.append_silence(0.1);
  rec.append(tone(900.0, 0.1, 0.06));
  rec.append_silence(0.1);

  const std::vector<double> watch{600.0, 900.0};
  const auto events = extract_tone_events(rec, det, watch, 0.05);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].frequency_hz, 600.0);
  EXPECT_DOUBLE_EQ(events[1].frequency_hz, 900.0);
  EXPECT_LT(events[0].time_s, events[1].time_s);
}

TEST(ToneEvents, UnwatchedFrequenciesIgnored) {
  ToneDetector det;
  const audio::Waveform rec = tone(600.0, 0.1, 0.2);
  const std::vector<double> watch{1500.0};
  EXPECT_TRUE(extract_tone_events(rec, det, watch, 0.05).empty());
}

TEST(ToneEvents, InvalidHopThrows) {
  ToneDetector det;
  const audio::Waveform rec = tone(600.0, 0.1, 0.1);
  const std::vector<double> watch{600.0};
  EXPECT_THROW(extract_tone_events(rec, det, watch, 0.0),
               std::invalid_argument);
}

// Sensitivity matrix: every window kind must detect the paper's
// operating point (>= 30 ms tones at signalling levels) and stay silent
// on silence.
class DetectorWindowMatrix
    : public ::testing::TestWithParam<
          std::tuple<dsp::WindowKind, double /*duration_s*/>> {};

TEST_P(DetectorWindowMatrix, DetectsOperatingPointTone) {
  const auto [kind, duration] = GetParam();
  ToneDetectorConfig cfg;
  cfg.window = kind;
  ToneDetector det(cfg);
  audio::Waveform block = tone(1200.0, 0.1, duration);
  if (duration < 0.05) block.append_silence(0.05 - duration);
  EXPECT_TRUE(has_tone_near(det.detect(block.samples()), 1200.0))
      << dsp::window_name(kind) << " " << duration << " s";
  const auto silence = audio::make_silence(0.05, kSampleRate);
  EXPECT_TRUE(det.detect(silence.samples()).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DetectorWindowMatrix,
    ::testing::Combine(::testing::Values(dsp::WindowKind::kRectangular,
                                         dsp::WindowKind::kHann,
                                         dsp::WindowKind::kHamming,
                                         dsp::WindowKind::kBlackman),
                       ::testing::Values(0.03, 0.05, 0.1)));

TEST(ToneDetector, ConcurrentDetectOnSharedDetectorIsConsistent) {
  // Satellite of the plan refactor: detect() is const with no mutable
  // members (scratch is thread-local), so one detector shared by many
  // threads must produce the same result as a single-threaded run.
  // Run under TSAN to check the absence-of-races claim mechanically.
  const ToneDetector det;
  const auto block_a = tone(700.0, 0.1, 0.05);
  const auto block_b = tone(1200.0, 0.1, 0.03);  // short: padded path
  const auto ref_a = det.detect(block_a.samples());
  const auto ref_b = det.detect(block_b.samples());

  constexpr std::size_t kThreads = 8;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<DetectedTone> out;
      for (int i = 0; i < 50; ++i) {
        const auto& block = (t + i) % 2 == 0 ? block_a : block_b;
        const auto& ref = (t + i) % 2 == 0 ? ref_a : ref_b;
        det.detect_into(block.samples(), out);
        if (out.size() != ref.size()) return;
        for (std::size_t k = 0; k < out.size(); ++k) {
          if (out[k].frequency_hz != ref[k].frequency_hz ||
              out[k].amplitude != ref[k].amplitude) {
            return;
          }
        }
      }
      ok[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[t], 1) << "thread " << t;
  }
}

// Sweep: detection works across the whole default plan band.
class DetectorBandSweep : public ::testing::TestWithParam<double> {};

TEST_P(DetectorBandSweep, DetectsToneAcrossBand) {
  ToneDetector det;
  const double freq = GetParam();
  const auto block = tone(freq, 0.05, 0.05);
  EXPECT_TRUE(has_tone_near(det.detect(block.samples()), freq))
      << freq << " Hz";
}

INSTANTIATE_TEST_SUITE_P(PlanBand, DetectorBandSweep,
                         ::testing::Values(500.0, 740.0, 1000.0, 2020.0,
                                           5000.0, 8000.0, 12000.0,
                                           17980.0));

// --- BlockSignalStats (health-monitor feed) ---------------------------

TEST(ToneDetectorStats, ToneBlockSeparatesPeakFromNoiseFloor) {
  ToneDetector det;
  std::vector<DetectedTone> out;
  obs::BlockSignalStats stats;
  const auto block = tone(800.0, 0.1, 0.05);
  det.detect_into(block.samples(), out, &stats);
  ASSERT_FALSE(out.empty());
  // Peak amplitude is the strongest detection; RMS of a sine of
  // amplitude A is ~A/sqrt(2) (slightly less with the edge fades).
  double strongest = 0.0;
  for (const auto& t : out) strongest = std::max(strongest, t.amplitude);
  EXPECT_NEAR(stats.peak_amplitude, strongest, 1e-12);
  EXPECT_NEAR(stats.rms, 0.1 / std::sqrt(2.0), 0.01);
  // The tone's own bins are excised: the floor sees only leakage, far
  // below the peak — the separation the SNR estimator depends on.
  EXPECT_GT(stats.noise_floor, 0.0);
  EXPECT_LT(stats.noise_floor, stats.peak_amplitude / 100.0);
}

TEST(ToneDetectorStats, SilenceHasZeroStats) {
  ToneDetector det;
  std::vector<DetectedTone> out;
  obs::BlockSignalStats stats;
  stats.rms = 99.0;  // must be overwritten, not accumulated
  const auto silence = audio::make_silence(0.05, kSampleRate);
  det.detect_into(silence.samples(), out, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_DOUBLE_EQ(stats.rms, 0.0);
  EXPECT_DOUBLE_EQ(stats.peak_amplitude, 0.0);
  EXPECT_DOUBLE_EQ(stats.noise_floor, 0.0);
}

TEST(ToneDetectorStats, NoiseRaisesFloorWithoutPeaks) {
  // A deterministic pseudo-noise block (sum of many incommensurate
  // sub-threshold tones) must raise the measured floor well above a
  // clean tone block's leakage floor.
  ToneDetector det;
  std::vector<DetectedTone> out;
  obs::BlockSignalStats clean_stats;
  det.detect_into(tone(800.0, 0.1, 0.05).samples(), out, &clean_stats);
  const double clean_floor = clean_stats.noise_floor;

  audio::Waveform noisy = tone(800.0, 0.1, 0.05);
  for (int k = 0; k < 120; ++k) {
    // 8e-4 < the 1e-3 detection threshold: raises bins, never a peak.
    noisy.mix_at(tone(523.0 + 130.7 * k, 8e-4, 0.05), 0);
  }
  obs::BlockSignalStats noisy_stats;
  det.detect_into(noisy.samples(), out, &noisy_stats);
  EXPECT_GT(noisy_stats.noise_floor, clean_floor * 3.0);
}

TEST(ToneDetectorStats, NullStatsStillDetects) {
  ToneDetector det;
  std::vector<DetectedTone> out;
  const auto block = tone(700.0, 0.1, 0.05);
  det.detect_into(block.samples(), out, nullptr);
  EXPECT_TRUE(has_tone_near(out, 700.0));
  det.detect_into(block.samples(), out);  // default arg stays source-compatible
  EXPECT_TRUE(has_tone_near(out, 700.0));
}

TEST(ToneDetector, WarmUpDetectsNothingAndKeepsLaterCallsIdentical) {
  // warm_up() must not perturb subsequent detection results.
  ToneDetector cold;
  ToneDetector warmed;
  warmed.warm_up();
  const auto block = tone(940.0, 0.15, 0.05);
  std::vector<DetectedTone> a, b;
  cold.detect_into(block.samples(), a);
  warmed.detect_into(block.samples(), b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].frequency_hz, b[t].frequency_hz);
    EXPECT_EQ(a[t].amplitude, b[t].amplitude);
  }
}

// --- WatchMatcher: the one per-block matching step ----------------------

struct Onset {
  std::size_t watch = 0;
  double hz = 0.0;
  double amplitude = 0.0;
  obs::CauseId cause = 0;
};

/// Matches one block; returns the reported onsets in call order.
std::vector<Onset> match_block(const WatchMatcher& matcher,
                               const std::vector<DetectedTone>& tones,
                               std::vector<char>& active,
                               const std::vector<audio::EmissionTag>& tags =
                                   {}) {
  std::vector<Onset> onsets;
  matcher.match(tones, tags, active, nullptr,
                [&](std::size_t w, double hz, double amplitude,
                    obs::CauseId cause) {
                  onsets.push_back({w, hz, amplitude, cause});
                  return cause;
                });
  return onsets;
}

TEST(WatchMatcher, DifferenceOfExactlyTheToleranceStillMatches) {
  const WatchMatcher matcher({1000.0}, 10.0);
  for (const double hz : {990.0, 1010.0}) {
    std::vector<char> active(1, 0);
    EXPECT_EQ(match_block(matcher, {{hz, 0.5}}, active).size(), 1u) << hz;
  }
  for (const double hz : {989.5, 1010.5}) {
    std::vector<char> active(1, 0);
    EXPECT_TRUE(match_block(matcher, {{hz, 0.5}}, active).empty()) << hz;
    EXPECT_EQ(active[0], 0);
  }
}

TEST(WatchMatcher, AmplitudeIsTheLoudestInToleranceTone) {
  const WatchMatcher matcher({1000.0}, 10.0);
  std::vector<char> active(1, 0);
  // 0.9 is louder but 30 Hz away, outside the tolerance.
  const auto onsets = match_block(
      matcher, {{993.0, 0.2}, {1004.0, 0.5}, {1009.0, 0.3}, {1030.0, 0.9}},
      active);
  ASSERT_EQ(onsets.size(), 1u);
  EXPECT_DOUBLE_EQ(onsets[0].amplitude, 0.5);
  EXPECT_DOUBLE_EQ(onsets[0].hz, 1000.0);  // the watch's, not the tone's
}

TEST(WatchMatcher, OneToneCanMatchTwoWatches) {
  const WatchMatcher matcher({1000.0, 1015.0}, 10.0);
  std::vector<char> active(2, 0);
  const auto onsets = match_block(matcher, {{1008.0, 0.4}}, active);
  ASSERT_EQ(onsets.size(), 2u);
  EXPECT_EQ(onsets[0].watch, 0u);
  EXPECT_DOUBLE_EQ(onsets[0].hz, 1000.0);
  EXPECT_EQ(onsets[1].watch, 1u);
  EXPECT_DOUBLE_EQ(onsets[1].hz, 1015.0);
  EXPECT_DOUBLE_EQ(onsets[1].amplitude, 0.4);
}

TEST(WatchMatcher, CauseIsTheFirstInToleranceTagInTagOrder) {
  const WatchMatcher matcher({1000.0, 2000.0, 3000.0}, 10.0);
  std::vector<char> active(3, 0);
  // Tag order decides, not distance: 12 precedes the exact-hit 13.  Watch
  // 1 has a tag (14) but no tone, so it reports nothing; watch 2 is heard
  // with no tag on its frequency, so its cause is 0.
  const auto onsets =
      match_block(matcher, {{1001.0, 0.4}, {3000.0, 0.4}}, active,
                  {{11, 1050.0}, {12, 1008.0}, {13, 1000.0}, {14, 2000.0}});
  ASSERT_EQ(onsets.size(), 2u);
  EXPECT_EQ(onsets[0].watch, 0u);
  EXPECT_EQ(onsets[0].cause, 12u);
  EXPECT_EQ(onsets[1].watch, 2u);
  EXPECT_EQ(onsets[1].cause, 0u);
  EXPECT_EQ(active[1], 0);
}

TEST(WatchMatcher, OnsetFiresOnlyOnAnAbsentToPresentEdge) {
  const WatchMatcher matcher({1000.0}, 10.0);
  std::vector<char> active(1, 0);
  const std::vector<DetectedTone> on{{1000.0, 0.4}};
  EXPECT_EQ(match_block(matcher, on, active).size(), 1u);  // rises
  EXPECT_EQ(active[0], 1);
  EXPECT_TRUE(match_block(matcher, on, active).empty());  // still present
  EXPECT_TRUE(match_block(matcher, {}, active).empty());  // falls
  EXPECT_EQ(active[0], 0);
  EXPECT_EQ(match_block(matcher, on, active).size(), 1u);  // rises again
}

TEST(WatchMatcher, EstimatorGetsTheOnsetCallbacksEvidence) {
  obs::HealthConfig cfg;
  cfg.watch_count = 1;
  obs::Health health(cfg);
  // Fires on the first block, so the alert carries that block's evidence.
  obs::SloSpec rule;
  rule.name = "noise_floor_high";
  rule.metric = obs::SloSpec::Metric::kNoiseFloor;
  rule.op = obs::SloSpec::Op::kAbove;
  rule.threshold = 0.5;
  health.add_slo(rule);
  obs::MicSignalEstimator& est = health.estimator(health.add_mic("m0"));

  const WatchMatcher matcher({1000.0}, 10.0);
  std::vector<char> active(1, 0);
  const std::vector<DetectedTone> tones{{1000.0, 2.0}};
  const std::vector<audio::EmissionTag> tags{{5, 1000.0}};
  obs::BlockSignalStats stats;
  stats.noise_floor = 1.0;
  est.begin_block(0.1, stats);
  obs::CauseId cited = 0;
  matcher.match(tones, tags, active, &est,
                [&](std::size_t, double, double, obs::CauseId cause) {
                  cited = cause;
                  return obs::CauseId{42};  // e.g. the detection record
                });
  est.end_block();

  EXPECT_EQ(cited, 5u);
  ASSERT_EQ(health.poll(), 1u);
  EXPECT_EQ(health.alerts().back().evidence, 42u);
}

}  // namespace
}  // namespace mdn::core
