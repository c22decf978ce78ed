// Planned FFT engine: oracle comparison against the naive DFT, the
// packed-real path against promote-to-complex, and the process-wide
// plan cache contract (reuse, identical spectra, thread safety).
#include "dsp/fft_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "audio/rng.h"

namespace mdn::dsp {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  audio::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  audio::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_near(std::span<const Complex> a, std::span<const Complex> b,
                 double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "bin " << i;
  }
}

TEST(FftPlan, MatchesReferenceDftAcrossSizesAndDirections) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 12u, 64u, 100u, 241u, 256u}) {
    const auto in = random_signal(n, 100 + n);
    const FftPlan forward(n, false);
    expect_near(forward.transform(in), dft_reference(in), 1e-7);

    // Inverse plan == conjugate transform: ifft(X) * N has the plan's
    // (unscaled) output.
    const FftPlan backward(n, true);
    auto expected = ifft(dft_reference(in));
    for (auto& x : expected) x *= static_cast<double>(n);
    expect_near(backward.transform(dft_reference(in)), expected, 1e-6);
  }
}

TEST(FftPlan, ForwardInverseRoundTrip) {
  for (std::size_t n : {4u, 7u, 128u, 300u, 1024u}) {
    const auto in = random_signal(n, 7 * n);
    const FftPlan forward(n, false);
    const FftPlan backward(n, true);
    auto data = forward.transform(in);
    data = backward.transform(data);
    for (auto& x : data) x /= static_cast<double>(n);
    expect_near(data, in, 1e-7);
  }
}

TEST(FftPlan, ExecutesWithExactScratchSize) {
  // The documented contract: scratch_size() elements suffice, and
  // power-of-two plans need none at all.
  const FftPlan pow2(512);
  EXPECT_EQ(pow2.scratch_size(), 0u);
  auto data = random_signal(512, 3);
  const auto expected = dft_reference(data);
  pow2.execute(data);  // empty scratch
  expect_near(data, expected, 1e-7);

  const FftPlan bluestein(100);
  EXPECT_GT(bluestein.scratch_size(), 0u);
  auto data2 = random_signal(100, 4);
  const auto expected2 = dft_reference(data2);
  std::vector<Complex> scratch(bluestein.scratch_size());
  bluestein.execute(data2, scratch);
  expect_near(data2, expected2, 1e-7);
}

TEST(FftPlan, ThrowsOnSizeMismatchAndShortScratch) {
  const FftPlan plan(64);
  std::vector<Complex> wrong(32);
  EXPECT_THROW(plan.execute(wrong), std::invalid_argument);

  const FftPlan bluestein(12);
  std::vector<Complex> data(12);
  std::vector<Complex> small(bluestein.scratch_size() - 1);
  EXPECT_THROW(bluestein.execute(data, small), std::invalid_argument);
}

TEST(FftPlan, RepeatedExecutionIsBitIdentical) {
  // Precomputed tables make execute() a pure function of its input.
  const FftPlan plan(256);
  const auto in = random_signal(256, 21);
  const auto a = plan.transform(in);
  const auto b = plan.transform(in);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b[i].real());
    EXPECT_EQ(a[i].imag(), b[i].imag());
  }
}

TEST(RealFftPlan, MatchesPromoteToComplex) {
  for (std::size_t n : {4u, 8u, 120u, 256u, 2048u, 2400u}) {
    const auto in = random_real(n, 50 + n);
    std::vector<Complex> cin(n);
    for (std::size_t i = 0; i < n; ++i) cin[i] = Complex{in[i], 0.0};
    const auto full = dft_reference(cin);

    const RealFftPlan plan(n);
    ASSERT_EQ(plan.bins(), n / 2 + 1);
    const auto half = plan.spectrum(in);
    expect_near(half, std::span<const Complex>(full).first(plan.bins()),
                1e-7);
  }
}

TEST(RealFftPlan, ExecutesWithExactScratchSize) {
  const RealFftPlan plan(1024);
  const auto in = random_real(1024, 9);
  std::vector<Complex> bins(plan.bins());
  std::vector<Complex> scratch(plan.scratch_size());
  plan.execute(in, bins, scratch);
  expect_near(bins, plan.spectrum(in), 0.0);
}

TEST(RealFftPlan, ThrowsOnBadBuffers) {
  const RealFftPlan plan(64);
  const auto in = random_real(64, 2);
  std::vector<Complex> bins(plan.bins());
  std::vector<Complex> scratch(plan.scratch_size());
  std::vector<double> wrong(32);
  EXPECT_THROW(plan.execute(wrong, bins, scratch), std::invalid_argument);
  std::vector<Complex> short_bins(plan.bins() - 1);
  EXPECT_THROW(plan.execute(in, short_bins, scratch), std::invalid_argument);
  std::vector<Complex> short_scratch(plan.scratch_size() - 1);
  EXPECT_THROW(plan.execute(in, bins, short_scratch), std::invalid_argument);
}

TEST(PlanCache, ReturnsTheSamePlanForTheSameKey) {
  auto& cache = PlanCache::global();
  const auto a = cache.real_plan(4096);
  const auto b = cache.real_plan(4096);
  EXPECT_EQ(a.get(), b.get());

  const auto f = cache.complex_plan(333, false);
  const auto g = cache.complex_plan(333, false);
  EXPECT_EQ(f.get(), g.get());
  // Direction is part of the key.
  const auto inv = cache.complex_plan(333, true);
  EXPECT_NE(f.get(), inv.get());
}

TEST(PlanCache, CachedPlanProducesIdenticalSpectra) {
  // Two independent fetches of the same size must agree bit-for-bit
  // with each other and with a freshly planned transform.
  const auto in = random_real(512, 77);
  const auto a = PlanCache::global().real_plan(512)->spectrum(in);
  const auto b = PlanCache::global().real_plan(512)->spectrum(in);
  const auto fresh = RealFftPlan(512).spectrum(in);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].real(), b[k].real());
    EXPECT_EQ(a[k].imag(), b[k].imag());
    EXPECT_EQ(a[k].real(), fresh[k].real());
    EXPECT_EQ(a[k].imag(), fresh[k].imag());
  }
}

TEST(PlanCache, ConcurrentFetchAndExecuteIsSafe) {
  // Many threads hammering the same (new) sizes: the cache must hand
  // out consistent plans and concurrent execute() must stay correct.
  constexpr std::size_t kThreads = 8;
  const std::size_t n = 768;  // non power-of-two, unlikely cached yet
  const auto in = random_signal(n, 13);
  const auto expected = dft_reference(in);

  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto plan = PlanCache::global().complex_plan(n);
      for (int iter = 0; iter < 8; ++iter) {
        const auto out = plan->transform(in);
        double err = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
          err = std::max(err, std::abs(out[k] - expected[k]));
        }
        if (err > 1e-6) return;
      }
      ok[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(ok[t], 1) << "thread " << t;
  }
}

}  // namespace
}  // namespace mdn::dsp
