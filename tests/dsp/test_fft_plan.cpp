// Planned FFT engine: oracle comparison against the naive DFT, the
// packed-real path against promote-to-complex, bit-identity with the
// textbook schedule the plans replaced, and the process-wide plan cache
// contract (reuse, identical spectra, thread safety).
#include "dsp/fft_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>
#include <thread>
#include <utility>

#include "audio/rng.h"
#include "dsp/simd.h"

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

// --- bit identity with the textbook schedule ------------------------
//
// The plans run their butterflies gathered, fused and two stages per
// pass; the oracle below is the schedule they replaced, written out
// here: the same twiddle and chirp tables, a bit-reversal swap pass,
// every stage in turn, and the real-FFT untangle on std::complex.  Each
// butterfly sees the same operands in both, so every output double must
// match exactly, under every kernel table.

constexpr double kPi = std::numbers::pi;

class TextbookFft {
 public:
  TextbookFft(std::size_t n, bool inverse) : n_(n) {
    if (n_ <= 1) return;
    if (is_power_of_two(n_)) {
      bitrev_.resize(n_);
      std::size_t j = 0;
      for (std::size_t i = 1; i < n_; ++i) {
        std::size_t bit = n_ >> 1;
        while (j & bit) {
          j ^= bit;
          bit >>= 1;
        }
        j |= bit;
        bitrev_[i] = j;
      }
      const double sign = inverse ? 2.0 : -2.0;
      for (std::size_t len = 2; len <= n_; len <<= 1) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          const double angle = sign * kPi * static_cast<double>(k) /
                               static_cast<double>(len);
          twiddles_.push_back(Complex{std::cos(angle), std::sin(angle)});
        }
      }
      return;
    }
    const double sign = inverse ? 1.0 : -1.0;
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const auto k2 = static_cast<double>((k * k) % (2 * n_));
      const double angle = sign * kPi * k2 / static_cast<double>(n_);
      chirp_[k] = Complex{std::cos(angle), std::sin(angle)};
    }
    m_ = next_power_of_two(2 * n_ - 1);
    conv_forward_ = std::make_unique<TextbookFft>(m_, false);
    conv_inverse_ = std::make_unique<TextbookFft>(m_, true);
    kernel_fft_.assign(m_, Complex{0.0, 0.0});
    kernel_fft_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
      kernel_fft_[k] = std::conj(chirp_[k]);
      kernel_fft_[m_ - k] = kernel_fft_[k];
    }
    conv_forward_->pow2(kernel_fft_);
  }

  std::vector<Complex> transform(std::vector<Complex> data) const {
    if (n_ <= 1) return data;
    if (m_ == 0) {
      pow2(data);
      return data;
    }
    std::vector<Complex> a(m_, Complex{0.0, 0.0});
    cmul(data.data(), chirp_.data(), a.data(), n_);
    conv_forward_->pow2(a);
    cmul(a.data(), kernel_fft_.data(), a.data(), m_);
    conv_inverse_->pow2(a);
    const double scale = 1.0 / static_cast<double>(m_);
    cmul(a.data(), chirp_.data(), data.data(), n_);
    for (auto& x : data) x = Complex{x.real() * scale, x.imag() * scale};
    return data;
  }

 private:
  static void cmul(const Complex* a, const Complex* b, Complex* out,
                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const double ar = a[i].real(), ai = a[i].imag();
      const double br = b[i].real(), bi = b[i].imag();
      out[i] = Complex{ar * br - ai * bi, ar * bi + ai * br};
    }
  }

  void pow2(std::vector<Complex>& data) const {
    for (std::size_t i = 1; i < n_; ++i) {
      if (i < bitrev_[i]) std::swap(data[i], data[bitrev_[i]]);
    }
    const Complex* stage = twiddles_.data();
    for (std::size_t len = 2; len <= n_; len <<= 1) {
      const std::size_t half = len / 2;
      for (std::size_t i = 0; i < n_; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          Complex& a = data[i + k];
          Complex& b = data[i + k + half];
          const double wr = stage[k].real(), wi = stage[k].imag();
          const double vr = b.real() * wr - b.imag() * wi;
          const double vi = b.real() * wi + b.imag() * wr;
          const double ar = a.real(), ai = a.imag();
          a = Complex{ar + vr, ai + vi};
          b = Complex{ar - vr, ai - vi};
        }
      }
      stage += half;
    }
  }

  std::size_t n_;
  std::vector<std::size_t> bitrev_;
  std::vector<Complex> twiddles_;
  std::size_t m_ = 0;
  std::vector<Complex> chirp_;
  std::vector<Complex> kernel_fft_;
  std::unique_ptr<TextbookFft> conv_forward_;
  std::unique_ptr<TextbookFft> conv_inverse_;
};

// The packed-real path (n a power of two >= 4) with its std::complex
// untangle.
std::vector<Complex> textbook_real_fft(std::span<const double> x) {
  const std::size_t n = x.size();
  const std::size_t half = n / 2;
  std::vector<Complex> z(half);
  for (std::size_t i = 0; i < half; ++i) z[i] = Complex{x[2 * i], x[2 * i + 1]};
  z = TextbookFft(half, false).transform(std::move(z));
  std::vector<Complex> out(half + 1);
  for (std::size_t k = 0; k <= half / 2; ++k) {
    const double angle_k =
        -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    const double angle_m = -2.0 * kPi * static_cast<double>(half - k) /
                           static_cast<double>(n);
    const Complex wk{std::cos(angle_k), std::sin(angle_k)};
    const Complex wm{std::cos(angle_m), std::sin(angle_m)};
    const std::size_t km = (half - k) % half;
    const Complex a = z[k];
    const Complex b = std::conj(z[km]);
    const Complex even = 0.5 * (a + b);
    const Complex odd = Complex{0.0, -0.5} * (a - b);
    out[k] = even + wk * odd;
    out[half - k] = std::conj(even) + wm * std::conj(odd);
  }
  out[half] = Complex{z[0].real() - z[0].imag(), 0.0};
  return out;
}

// Random values with exact zeros and -0.0 planted among them.
std::vector<double> with_zeros(std::vector<double> v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 7 == 3) v[i] = 0.0;
    if (i % 11 == 5) v[i] = -0.0;
  }
  return v;
}

std::vector<Complex> complex_with_zeros(std::size_t n, std::uint64_t seed) {
  const auto re = with_zeros(random_real(n, seed));
  const auto im = with_zeros(random_real(n, seed + 1));
  std::vector<Complex> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = Complex{re[i], im[i]};
    if (i % 13 == 6) v[i] = Complex{-0.0, -0.0};
  }
  return v;
}

// The detector's input shape: `live` samples, then exact zeros up to
// 4096 (the zero-padded tail of a 50 or 25 ms block).
std::vector<double> padded_block(std::size_t live, std::uint64_t seed) {
  auto v = with_zeros(random_real(live, seed));
  v.resize(4096, 0.0);
  return v;
}

std::vector<std::size_t> powers_of_two(std::size_t from, std::size_t to) {
  std::vector<std::size_t> out;
  for (std::size_t n = from; n <= to; n *= 2) out.push_back(n);
  return out;
}

constexpr std::size_t kBluesteinSizes[] = {3, 5, 12, 100, 1000, 2400};

void expect_same_bits(std::span<const Complex> got,
                      std::span<const Complex> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(Complex)) != 0 &&
        ++diverged <= 3) {
      ADD_FAILURE() << what << " bin " << i << ": got " << got[i] << ", want "
                    << want[i];
    }
  }
  EXPECT_EQ(diverged, 0u) << what;
}

// Runs `body` once under each kernel table this build and CPU offer.
template <typename Body>
void for_each_isa(Body&& body) {
  const simd::Isa before = simd::active_isa();
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (!simd::isa_available(isa)) continue;
    simd::set_active_isa_for_testing(isa);
    body(std::string(" under ") + simd::isa_name(isa));
  }
  simd::set_active_isa_for_testing(before);
}

TEST(FftPlanTextbookBits, ComplexPlansMatchBitForBit) {
  std::vector<std::size_t> sizes = powers_of_two(2, 65536);
  sizes.insert(sizes.end(), std::begin(kBluesteinSizes),
               std::end(kBluesteinSizes));
  for (const std::size_t n : sizes) {
    const auto in = complex_with_zeros(n, 4000 + n);
    for (const bool inverse : {false, true}) {
      const auto want = TextbookFft(n, inverse).transform(in);
      const FftPlan plan(n, inverse);
      for_each_isa([&](const std::string& isa) {
        expect_same_bits(plan.transform(in), want,
                         "n=" + std::to_string(n) +
                             (inverse ? " inverse" : " forward") + isa);
      });
    }
  }
}

TEST(FftPlanTextbookBits, RealPlansMatchBitForBit) {
  for (const std::size_t n : powers_of_two(4, 65536)) {
    const auto in = with_zeros(random_real(n, 5000 + n));
    const auto want = textbook_real_fft(in);
    const RealFftPlan plan(n);
    for_each_isa([&](const std::string& isa) {
      expect_same_bits(plan.spectrum(in), want,
                       "real n=" + std::to_string(n) + isa);
    });
  }
}

TEST(FftPlanTextbookBits, DetectorBlocksMatchBitForBit) {
  const RealFftPlan plan(4096);
  for (const std::size_t live : {2400u, 1200u}) {
    const auto in = padded_block(live, 6000 + live);
    const auto want = textbook_real_fft(in);
    for_each_isa([&](const std::string& isa) {
      expect_same_bits(plan.spectrum(in), want,
                       "live=" + std::to_string(live) + isa);
    });
  }
  // All zeros, and all -0.0: the signed-zero corner of every product.
  for (const double zero : {0.0, -0.0}) {
    const std::vector<double> in(4096, zero);
    const auto want = textbook_real_fft(in);
    for_each_isa([&](const std::string& isa) {
      expect_same_bits(plan.spectrum(in), want,
                       std::string(std::signbit(zero) ? "-0.0" : "0.0") +
                           " block" + isa);
    });
  }
}

// FNV-1a over the bit patterns of every spectrum the three tests above
// compare, pinned from the textbook-schedule build so that a build
// without a second table (-DMDN_NO_SIMD=ON) is held to the same bits.
TEST(FftPlanTextbookBits, SpectraDigestIsPinned) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::span<const Complex> spectrum) {
    for (const Complex& c : spectrum) {
      unsigned char bytes[sizeof(Complex)];
      std::memcpy(bytes, &c, sizeof(Complex));
      for (const unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
      }
    }
  };
  std::vector<std::size_t> sizes = powers_of_two(2, 65536);
  sizes.insert(sizes.end(), std::begin(kBluesteinSizes),
               std::end(kBluesteinSizes));
  for (const std::size_t n : sizes) {
    const auto in = complex_with_zeros(n, 4000 + n);
    for (const bool inverse : {false, true}) {
      mix(FftPlan(n, inverse).transform(in));
    }
  }
  for (const std::size_t n : powers_of_two(4, 65536)) {
    mix(RealFftPlan(n).spectrum(with_zeros(random_real(n, 5000 + n))));
  }
  const RealFftPlan plan(4096);
  for (const std::size_t live : {2400u, 1200u}) {
    mix(plan.spectrum(padded_block(live, 6000 + live)));
  }
  for (const double zero : {0.0, -0.0}) {
    mix(plan.spectrum(std::vector<double>(4096, zero)));
  }
  EXPECT_EQ(h, 0x102baf78fa26f316ULL) << std::hex << "digest 0x" << h;
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
