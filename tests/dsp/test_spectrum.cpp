#include "dsp/spectrum.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/fft.h"
#include "dsp/simd.h"
#include "dsp/window.h"

namespace mdn::dsp {
namespace {

std::vector<double> sine(double freq, double amp, double sample_rate,
                         std::size_t n, double phase = 0.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = amp * std::sin(phase + 2.0 * std::numbers::pi * freq *
                                      static_cast<double>(i) / sample_rate);
  }
  return v;
}

TEST(Spectrum, DbConversionsRoundTrip) {
  EXPECT_NEAR(amplitude_to_db(1.0), 0.0, 1e-12);
  EXPECT_NEAR(amplitude_to_db(10.0), 20.0, 1e-12);
  EXPECT_NEAR(amplitude_to_db(0.1), -20.0, 1e-12);
  EXPECT_NEAR(db_to_amplitude(40.0), 100.0, 1e-9);
  for (double db : {-60.0, -6.0, 0.0, 12.0, 94.0}) {
    EXPECT_NEAR(amplitude_to_db(db_to_amplitude(db)), db, 1e-9);
  }
}

TEST(Spectrum, DbFloorsOnNonPositiveAmplitude) {
  EXPECT_DOUBLE_EQ(amplitude_to_db(0.0), -120.0);
  EXPECT_DOUBLE_EQ(amplitude_to_db(-3.0), -120.0);
  EXPECT_DOUBLE_EQ(amplitude_to_db(1e-12, 1.0, -90.0), -90.0);
}

// The normalisation contract: a bin-centred unit sine reports amplitude
// ~1.0 under every window.
class SpectrumWindowNorm : public ::testing::TestWithParam<WindowKind> {};

TEST_P(SpectrumWindowNorm, UnitSineReportsUnitAmplitude) {
  const std::size_t n = 4096;
  const double sr = 48000.0;
  const double freq = bin_frequency(300, n, sr);
  const auto s = sine(freq, 1.0, sr, n);
  const auto w = make_window(GetParam(), n);
  const auto spec = amplitude_spectrum(s, w);
  EXPECT_NEAR(spec[300], 1.0, 0.01) << window_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllWindows, SpectrumWindowNorm,
                         ::testing::Values(WindowKind::kRectangular,
                                           WindowKind::kHann,
                                           WindowKind::kHamming,
                                           WindowKind::kBlackman));

TEST(Spectrum, DcComponentReportedOnce) {
  const std::size_t n = 1024;
  std::vector<double> s(n, 0.7);
  const auto spec =
      amplitude_spectrum(s, make_window(WindowKind::kRectangular, n));
  EXPECT_NEAR(spec[0], 0.7, 1e-9);
}

TEST(Spectrum, SizeIsHalfPlusOne) {
  const std::size_t n = 512;
  const std::vector<double> s(n, 0.0);
  const auto spec = amplitude_spectrum(s, make_window(WindowKind::kHann, n));
  EXPECT_EQ(spec.size(), n / 2 + 1);
}

TEST(Spectrum, MismatchedWindowThrows) {
  const std::vector<double> s(64, 0.0);
  const auto w = make_window(WindowKind::kHann, 32);
  EXPECT_THROW(amplitude_spectrum(s, w), std::invalid_argument);
}

TEST(Spectrum, FindPeaksLocatesSingleTone) {
  const std::size_t n = 4096;
  const double sr = 48000.0;
  const auto s = sine(1000.0, 0.5, sr, n);
  const auto spec = amplitude_spectrum(s, make_window(WindowKind::kHann, n));
  const auto peaks = find_peaks(spec, sr, n, 0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(peaks[0].frequency_hz, 1000.0, 2.0);
  EXPECT_NEAR(peaks[0].amplitude, 0.5, 0.05);
}

TEST(Spectrum, ParabolicInterpolationBeatsBinResolution) {
  // 48 kHz / 4096 = 11.7 Hz bins; place the tone between bins and expect
  // recovery within 1 Hz.
  const std::size_t n = 4096;
  const double sr = 48000.0;
  const double freq = 1005.3;
  const auto s = sine(freq, 1.0, sr, n);
  const auto spec = amplitude_spectrum(s, make_window(WindowKind::kHann, n));
  const auto peaks = find_peaks(spec, sr, n, 0.3);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks[0].frequency_hz, freq, 1.0);
}

TEST(Spectrum, FindPeaksSeparatesTwoTones20HzApart) {
  // The §3 finding: ~20 Hz separation is the resolvability limit.  Two
  // *simultaneous* tones 20 Hz apart need an analysis window whose main
  // lobe is narrower than the gap: 16384 samples at 48 kHz (341 ms) gives
  // a Hann main lobe of ~11.7 Hz.
  const std::size_t n = 16384;
  const double sr = 48000.0;
  auto s = sine(740.0, 0.5, sr, n);
  const auto t = sine(760.0, 0.5, sr, n, 1.1);
  for (std::size_t i = 0; i < n; ++i) s[i] += t[i];
  const auto spec = amplitude_spectrum(s, make_window(WindowKind::kHann, n));
  const auto peaks = find_peaks(spec, sr, n, 0.1, 2);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_NEAR(peaks[0].frequency_hz, 740.0, 5.0);
  EXPECT_NEAR(peaks[1].frequency_hz, 760.0, 5.0);
}

TEST(Spectrum, PaddedSpectrumKeepsDataResolution) {
  // A 2400-sample (50 ms) block zero-padded to 8192 still reports the
  // tone amplitude and frequency correctly.
  const double sr = 48000.0;
  const std::size_t n = 2400;
  const auto s = sine(700.0, 0.4, sr, n);
  const auto w = make_window(WindowKind::kBlackman, n);
  const auto spec = amplitude_spectrum_padded(s, w, 8192);
  EXPECT_EQ(spec.size(), 8192u / 2 + 1);
  const auto peaks = find_peaks(spec, sr, 8192, 0.1, 8);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks[0].frequency_hz, 700.0, 3.0);
  EXPECT_NEAR(peaks[0].amplitude, 0.4, 0.02);
}

TEST(Spectrum, PaddedSpectrumValidatesArguments) {
  const std::vector<double> s(100, 0.0);
  const auto w = make_window(WindowKind::kHann, 100);
  EXPECT_THROW(amplitude_spectrum_padded(s, w, 64), std::invalid_argument);
  const auto w2 = make_window(WindowKind::kHann, 50);
  EXPECT_THROW(amplitude_spectrum_padded(s, w2, 256), std::invalid_argument);
}

TEST(Spectrum, FindPeaksIgnoresSubThresholdTones) {
  const std::size_t n = 4096;
  const double sr = 48000.0;
  auto s = sine(1000.0, 0.5, sr, n);
  const auto t = sine(3000.0, 0.01, sr, n);
  for (std::size_t i = 0; i < n; ++i) s[i] += t[i];
  const auto spec = amplitude_spectrum(s, make_window(WindowKind::kHann, n));
  const auto peaks = find_peaks(spec, sr, n, 0.1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_NEAR(peaks[0].frequency_hz, 1000.0, 2.0);
}

TEST(Spectrum, FindPeaksOnSilenceIsEmpty) {
  const std::vector<double> spec(512, 0.0);
  EXPECT_TRUE(find_peaks(spec, 48000.0, 1024, 1e-6).empty());
}

TEST(Spectrum, SpectralDifferenceIsL1Norm) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{0.5, 2.5, 5.0};
  EXPECT_DOUBLE_EQ(spectral_difference(a, b), 0.5 + 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(spectral_difference(a, a), 0.0);
}

TEST(Spectrum, SpectralDifferenceSizeMismatchThrows) {
  const std::vector<double> a(4, 0.0);
  const std::vector<double> b(5, 0.0);
  EXPECT_THROW(spectral_difference(a, b), std::invalid_argument);
}

TEST(Spectrum, AmplitudeSpectrumDispatchMatchesForcedScalar) {
  // The windowed-FFT-magnitude pipeline end to end under the selected
  // SIMD table vs forced scalar: identical bits.
  const double sr = 48000.0;
  const std::size_t n = 2048;
  const auto s = sine(997.0, 0.7, sr, n);
  const auto w = make_window(WindowKind::kBlackman, n);
  const simd::Isa before = simd::active_isa();
  const auto fast = amplitude_spectrum(s, w);
  simd::set_active_isa_for_testing(simd::Isa::kScalar);
  const auto slow = amplitude_spectrum(s, w);
  simd::set_active_isa_for_testing(before);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_EQ(fast[k], slow[k]) << "bin " << k;
  }
}

TEST(Spectrum, FindPeaksDispatchMatchesForcedScalar) {
  // The chunked below-threshold prescan must not change which peaks are
  // found, under any kernel table.
  const double sr = 48000.0;
  const std::size_t n = 4096;
  auto s = sine(1000.0, 0.5, sr, n);
  const auto s2 = sine(2500.0, 0.002, sr, n);
  for (std::size_t i = 0; i < n; ++i) s[i] += s2[i];
  const auto w = make_window(WindowKind::kBlackman, n);
  const auto spec = amplitude_spectrum(s, w);

  const simd::Isa before = simd::active_isa();
  const auto fast = find_peaks(spec, sr, n, 1e-3);
  simd::set_active_isa_for_testing(simd::Isa::kScalar);
  const auto slow = find_peaks(spec, sr, n, 1e-3);
  simd::set_active_isa_for_testing(before);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].bin, slow[i].bin);
    EXPECT_EQ(fast[i].frequency_hz, slow[i].frequency_hz);
    EXPECT_EQ(fast[i].amplitude, slow[i].amplitude);
  }
}

}  // namespace
}  // namespace mdn::dsp
