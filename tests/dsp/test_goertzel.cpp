#include "dsp/goertzel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dsp/fft.h"

namespace mdn::dsp {
namespace {

std::vector<double> sine(double freq, double amp, double sample_rate,
                         std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = amp * std::sin(2.0 * std::numbers::pi * freq *
                          static_cast<double>(i) / sample_rate);
  }
  return v;
}

TEST(Goertzel, MatchesFftBinPower) {
  const double sr = 48000.0;
  const std::size_t n = 4096;
  const double freq = bin_frequency(200, n, sr);  // exactly on a bin
  const auto s = sine(freq, 0.8, sr, n);

  const auto spectrum = fft_real(s);
  const double fft_power = std::norm(spectrum[200]);
  const double g_power = goertzel_power(s, freq, sr);
  EXPECT_NEAR(g_power / fft_power, 1.0, 1e-6);
}

TEST(Goertzel, OnFrequencyPowerScalesWithN) {
  // |X|^2 for a sine of amplitude A at its own frequency is (A*N/2)^2.
  const double sr = 8000.0;
  const std::size_t n = 800;  // 10 full cycles of 100 Hz
  const auto s = sine(100.0, 1.0, sr, n);
  const double expected = std::pow(static_cast<double>(n) / 2.0, 2);
  EXPECT_NEAR(goertzel_power(s, 100.0, sr) / expected, 1.0, 1e-6);
}

TEST(Goertzel, OffFrequencyPowerIsSmall) {
  const double sr = 48000.0;
  const std::size_t n = 4800;  // 0.1 s
  const auto s = sine(1000.0, 1.0, sr, n);
  const double on = goertzel_power(s, 1000.0, sr);
  // 20 Hz away (the paper's plan spacing) with a 100 ms block: well
  // separated.
  const double off = goertzel_power(s, 1020.0, sr);
  EXPECT_GT(on / off, 100.0);
}

TEST(Goertzel, AmplitudeRecoverable) {
  const double sr = 48000.0;
  const std::size_t n = 4800;
  const double amp = 0.37;
  const auto s = sine(500.0, amp, sr, n);
  const double est =
      2.0 * std::sqrt(goertzel_power(s, 500.0, sr)) / static_cast<double>(n);
  EXPECT_NEAR(est, amp, amp * 0.01);
}

TEST(Goertzel, StreamingEqualsBatch) {
  const double sr = 16000.0;
  const auto s = sine(440.0, 0.5, sr, 1600);
  Goertzel g(440.0, sr);
  for (double x : s) g.push(x);
  EXPECT_DOUBLE_EQ(g.block_power(), goertzel_power(s, 440.0, sr));
  EXPECT_EQ(g.samples_seen(), s.size());
}

TEST(Goertzel, ResetClearsState) {
  Goertzel g(440.0, 16000.0);
  g.push(1.0);
  g.push(-1.0);
  g.reset();
  EXPECT_EQ(g.samples_seen(), 0u);
  EXPECT_DOUBLE_EQ(g.block_power(), 0.0);
}

TEST(Goertzel, SilenceHasZeroPower) {
  const std::vector<double> silence(1000, 0.0);
  EXPECT_DOUBLE_EQ(goertzel_power(silence, 700.0, 48000.0), 0.0);
}

TEST(Goertzel, SumOfTonesSeparable) {
  const double sr = 48000.0;
  const std::size_t n = 9600;  // 200 ms
  auto s = sine(600.0, 0.5, sr, n);
  const auto t = sine(900.0, 0.25, sr, n);
  for (std::size_t i = 0; i < n; ++i) s[i] += t[i];

  const double nd = static_cast<double>(n);
  const double a600 = 2.0 * std::sqrt(goertzel_power(s, 600.0, sr)) / nd;
  const double a900 = 2.0 * std::sqrt(goertzel_power(s, 900.0, sr)) / nd;
  EXPECT_NEAR(a600, 0.5, 0.01);
  EXPECT_NEAR(a900, 0.25, 0.01);
}

TEST(GoertzelBank, MatchesSingleFilterPowers) {
  const double sr = 48000.0;
  const std::size_t n = 4800;
  auto s = sine(600.0, 0.5, sr, n);
  const auto t = sine(900.0, 0.25, sr, n);
  for (std::size_t i = 0; i < n; ++i) s[i] += t[i];

  const std::vector<double> freqs{500.0, 600.0, 900.0, 1200.0};
  const GoertzelBank bank(freqs, sr);
  ASSERT_EQ(bank.size(), freqs.size());

  std::vector<double> powers(bank.size());
  bank.block_powers(s, powers);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(powers[i], goertzel_power(s, freqs[i], sr),
                1e-9 * std::max(1.0, powers[i]))
        << freqs[i] << " Hz";
  }
}

TEST(GoertzelBank, AmplitudesMatchGenerated) {
  const double sr = 48000.0;
  const std::size_t n = 9600;
  auto s = sine(600.0, 0.5, sr, n);
  const auto t = sine(900.0, 0.25, sr, n);
  for (std::size_t i = 0; i < n; ++i) s[i] += t[i];

  const std::vector<double> freqs{600.0, 900.0, 1500.0};
  const GoertzelBank bank(freqs, sr);
  std::vector<double> amps(bank.size());
  bank.block_amplitudes(s, amps);
  EXPECT_NEAR(amps[0], 0.5, 0.01);
  EXPECT_NEAR(amps[1], 0.25, 0.01);
  EXPECT_LT(amps[2], 0.01);
}

TEST(GoertzelBank, EmptyBankAndEmptyBlock) {
  const GoertzelBank empty({}, 48000.0);
  EXPECT_EQ(empty.size(), 0u);
  empty.block_powers({}, {});  // no-op, must not crash

  const std::vector<double> freqs{440.0};
  const GoertzelBank bank(freqs, 48000.0);
  std::vector<double> out(1, -1.0);
  bank.block_powers({}, out);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(GoertzelBank, MatchesSingleFiltersBitwise) {
  // The bank runs the same recurrence with the same coefficients as one
  // goertzel_power() call per frequency, so the powers agree exactly.
  const double sr = 48000.0;
  for (std::size_t nf : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                         std::size_t{4}, std::size_t{5}, std::size_t{7},
                         std::size_t{24}}) {
    std::vector<double> freqs(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      freqs[f] = 800.0 + 20.0 * static_cast<double>(f);
    }
    const GoertzelBank bank(freqs, sr);
    const auto block = sine(860.0, 0.4, sr, 2400);
    std::vector<double> powers(nf);
    bank.block_powers(block, powers);
    for (std::size_t f = 0; f < nf; ++f) {
      EXPECT_EQ(powers[f], goertzel_power(block, freqs[f], sr))
          << "nf=" << nf << " filter " << f;
    }
  }
}

// Parameterised sweep across the frequency plan band: amplitude recovery
// within 2% everywhere.
class GoertzelSweep : public ::testing::TestWithParam<double> {};

TEST_P(GoertzelSweep, RecoversAmplitudeAcrossBand) {
  const double freq = GetParam();
  const double sr = 48000.0;
  const std::size_t n = 4800;
  const auto s = sine(freq, 0.6, sr, n);
  const double est =
      2.0 * std::sqrt(goertzel_power(s, freq, sr)) / static_cast<double>(n);
  EXPECT_NEAR(est, 0.6, 0.012) << freq << " Hz";
}

INSTANTIATE_TEST_SUITE_P(Band, GoertzelSweep,
                         ::testing::Values(100.0, 250.0, 500.0, 700.0,
                                           1000.0, 2000.0, 5000.0, 10000.0,
                                           15000.0, 18000.0));

}  // namespace
}  // namespace mdn::dsp
