// SIMD kernel equivalence: every vector kernel must agree bit-for-bit
// with the scalar reference on every finite input — identical
// arithmetic, identical per-element operation order, no reassociation
// (see dsp/simd.h).  Length sweeps deliberately include values that are
// not multiples of any vector width to pin down tail handling, and the
// dispatch machinery itself (runtime selection, test-time forcing, the
// "dsp/simd/dispatch" gauge) is covered at the end.
#include "dsp/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "audio/rng.h"
#include "dsp/fft_plan.h"
#include "obs/metrics.h"

namespace mdn::dsp::simd {
namespace {

// The gauge values blessed baselines were recorded with.
static_assert(static_cast<int>(Isa::kScalar) == 0);
static_assert(static_cast<int>(Isa::kAvx2) == 2);

std::vector<Isa> available_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (isa_available(isa)) out.push_back(isa);
  }
  return out;
}

// Not multiples of 2 or 4 past the first few: every kernel's main loop
// AND its scalar tail get exercised.
constexpr std::size_t kLens[] = {0,  1,  2,  3,  4,  5,  6,  7, 8,
                                 9, 11, 15, 16, 17, 31, 33, 64, 67};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  audio::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  audio::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) {
    x = Complex{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
  }
  return v;
}

void expect_bits_eq(std::span<const double> got, std::span<const double> want,
                    const char* what, Isa isa) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << what << " diverged from scalar at [" << i << "] under "
        << isa_name(isa);
  }
}

void expect_bits_eq(std::span<const Complex> got,
                    std::span<const Complex> want, const char* what,
                    Isa isa) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].real(), want[i].real())
        << what << " re diverged at [" << i << "] under " << isa_name(isa);
    EXPECT_EQ(got[i].imag(), want[i].imag())
        << what << " im diverged at [" << i << "] under " << isa_name(isa);
  }
}

TEST(SimdDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(isa_available(Isa::kScalar));
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  // The startup pick must itself be available.
  EXPECT_TRUE(isa_available(active_isa()));
  EXPECT_EQ(&active_kernels(), &kernels_for(active_isa()));
}

TEST(SimdKernels, MulMatchesScalarBitwise) {
  const Kernels& ref = kernels_for(Isa::kScalar);
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (std::size_t n : kLens) {
      const auto a = random_doubles(n, 100 + n);
      const auto b = random_doubles(n, 200 + n);
      std::vector<double> want(n), got(n);
      ref.mul(a.data(), b.data(), want.data(), n);
      k.mul(a.data(), b.data(), got.data(), n);
      expect_bits_eq(got, want, "mul", isa);
      // Documented aliasing: out may be a.
      auto inplace = a;
      k.mul(inplace.data(), b.data(), inplace.data(), n);
      expect_bits_eq(inplace, want, "mul (aliased)", isa);
    }
  }
}

TEST(SimdKernels, MagScaleMatchesScalarBitwise) {
  const Kernels& ref = kernels_for(Isa::kScalar);
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (std::size_t n : kLens) {
      const auto bins = random_complex(n, 300 + n);
      const double scale = 2.0 / 0.42;
      std::vector<double> want(n), got(n);
      ref.mag_scale_aos(bins.data(), scale, want.data(), n);
      k.mag_scale_aos(bins.data(), scale, got.data(), n);
      expect_bits_eq(got, want, "mag_scale_aos", isa);
    }
  }
}

TEST(SimdKernels, ButterflyAosMatchesScalarBitwise) {
  const Kernels& ref = kernels_for(Isa::kScalar);
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (std::size_t half : kLens) {
      const auto tw = random_complex(half, 800 + half);
      const auto a0 = random_complex(half, 900 + half);
      const auto b0 = random_complex(half, 1000 + half);
      auto wa = a0, wb = b0;
      ref.butterfly_aos(wa.data(), wb.data(), tw.data(), half);
      auto ga = a0, gb = b0;
      k.butterfly_aos(ga.data(), gb.data(), tw.data(), half);
      expect_bits_eq(ga, wa, "butterfly_aos a", isa);
      expect_bits_eq(gb, wb, "butterfly_aos b", isa);
    }
  }
}

TEST(SimdKernels, ChunkMaxMatchesScalarBitwise) {
  const Kernels& ref = kernels_for(Isa::kScalar);
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (std::size_t n : kLens) {
      const auto x = random_doubles(n, 2100 + n);
      EXPECT_EQ(k.chunk_max(x.data(), n), ref.chunk_max(x.data(), n))
          << "chunk_max n=" << n << " under " << isa_name(isa);
    }
    EXPECT_EQ(k.chunk_max(nullptr, 0),
              -std::numeric_limits<double>::infinity());
  }
}

TEST(SimdDispatch, ForcingIsaSwitchesTheActiveTable) {
  const Isa before = active_isa();
  const Isa prev = set_active_isa_for_testing(Isa::kScalar);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  EXPECT_EQ(&active_kernels(), &kernels_for(Isa::kScalar));
  set_active_isa_for_testing(before);
  EXPECT_EQ(active_isa(), before);
}

TEST(SimdDispatch, ForcingUnavailableIsaIsANoOp) {
  if (isa_available(Isa::kAvx2)) {
    GTEST_SKIP() << "every ISA available here; nothing to refuse";
  }
  const Isa before = active_isa();
  EXPECT_EQ(set_active_isa_for_testing(Isa::kAvx2), before);
  EXPECT_EQ(active_isa(), before);
}

TEST(SimdDispatch, ExportsTheDispatchGauge) {
  export_dispatch_metrics();
  const auto& gauge = obs::Registry::global().gauge("dsp/simd/dispatch");
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(active_isa()));
}

TEST(SimdFft, DispatchMatchesForcedScalarBitwise) {
  // End-to-end: the full planned FFT (pow2 butterflies AND the Bluestein
  // chirp-z path) must produce identical bits under the runtime-selected
  // table and under forced scalar.
  const Isa before = active_isa();
  for (std::size_t n : {std::size_t{4}, std::size_t{64}, std::size_t{256},
                        std::size_t{2048}, std::size_t{4096},  // pow2
                        std::size_t{3}, std::size_t{5}, std::size_t{12},
                        std::size_t{100}, std::size_t{1000}}) {  // Bluestein
    const auto in = random_complex(n, 2200 + n);
    const FftPlan plan(n);
    const auto fast = plan.transform(in);
    set_active_isa_for_testing(Isa::kScalar);
    const auto slow = plan.transform(in);
    set_active_isa_for_testing(before);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fast[i].real(), slow[i].real()) << "n=" << n << " bin " << i;
      EXPECT_EQ(fast[i].imag(), slow[i].imag()) << "n=" << n << " bin " << i;
    }
  }
}

TEST(SimdFft, RealPlanDispatchMatchesForcedScalarBitwise) {
  const Isa before = active_isa();
  for (std::size_t n : {std::size_t{8}, std::size_t{2400},
                        std::size_t{4096}}) {
    const auto in = random_doubles(n, 2300 + n);
    const RealFftPlan plan(n);
    const auto fast = plan.spectrum(in);
    set_active_isa_for_testing(Isa::kScalar);
    const auto slow = plan.spectrum(in);
    set_active_isa_for_testing(before);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].real(), slow[i].real()) << "n=" << n << " bin " << i;
      EXPECT_EQ(fast[i].imag(), slow[i].imag()) << "n=" << n << " bin " << i;
    }
  }
}

}  // namespace
}  // namespace mdn::dsp::simd
