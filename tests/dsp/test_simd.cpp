// SIMD kernel equivalence: every vector kernel must agree bit-for-bit
// with the scalar reference on every finite input — identical
// arithmetic, identical per-element operation order, no reassociation
// (see dsp/simd.h).  Length sweeps deliberately include values that are
// not multiples of any vector width to pin down tail handling, and the
// dispatch machinery itself (runtime selection, test-time forcing, the
// "dsp/simd/dispatch" gauge) is covered at the end.
#include "dsp/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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

// Compares bit patterns, so 0.0 against -0.0 is a divergence too.
void expect_bits_eq(std::span<const double> got, std::span<const double> want,
                    const char* what, Isa isa) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " diverged from scalar at [" << i << "] under "
        << isa_name(isa) << ": " << got[i] << " vs " << want[i];
  }
}

void expect_bits_eq(std::span<const Complex> got,
                    std::span<const Complex> want, const char* what,
                    Isa isa) {
  ASSERT_EQ(got.size(), want.size());
  const auto* g = reinterpret_cast<const double*>(got.data());
  const auto* w = reinterpret_cast<const double*>(want.data());
  expect_bits_eq(std::span<const double>(g, 2 * got.size()),
                 std::span<const double>(w, 2 * want.size()), what, isa);
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

// Random values with an exact zero or -0.0 in every few components:
// signed zeros are where a reordered or simplified product would first
// show.
std::vector<Complex> random_complex_with_zeros(std::size_t n,
                                               std::uint64_t seed) {
  auto v = random_complex(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 5 == 1) v[i] = Complex{0.0, v[i].imag()};
    if (i % 7 == 2) v[i] = Complex{v[i].real(), -0.0};
    if (i % 11 == 3) v[i] = Complex{-0.0, 0.0};
  }
  return v;
}

TEST(SimdKernels, FftHeadMatchesScalarBitwise) {
  // Both ways the schedule calls the head: gathering whole rows at the
  // transform's stride, and re-reading one 8x8 tile (stride 8, bases
  // kBitrev3) into rows spread `out_stride` apart.
  const Kernels& ref = kernels_for(Isa::kScalar);
  const auto tw = random_complex_with_zeros(7, 3000);
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (std::size_t rows : {1u, 2u, 3u, 8u, 32u}) {
      const std::size_t src_stride = rows;
      const auto src = random_complex_with_zeros(8 * rows, 3100 + rows);
      std::vector<std::uint32_t> bases(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        bases[r] = static_cast<std::uint32_t>((r * 5 + 1) % rows);
      }
      std::vector<Complex> want(8 * rows), got(8 * rows);
      const auto* flat_src = reinterpret_cast<const double*>(src.data());
      ref.fft_head(flat_src, bases.data(), src_stride, tw.data(), want.data(),
                   8, rows);
      k.fft_head(flat_src, bases.data(), src_stride, tw.data(), got.data(), 8,
                 rows);
      expect_bits_eq(got, want, "fft_head (gather)", isa);
    }
    const auto tile = random_complex_with_zeros(64, 3200);
    const auto* flat_tile = reinterpret_cast<const double*>(tile.data());
    std::vector<Complex> want(8 * 24), got(8 * 24);
    ref.fft_head(flat_tile, kBitrev3, 8, tw.data(), want.data() + 8, 24, 8);
    k.fft_head(flat_tile, kBitrev3, 8, tw.data(), got.data() + 8, 24, 8);
    expect_bits_eq(got, want, "fft_head (tile)", isa);
  }
}

TEST(SimdKernels, FftStagesMatchesScalarBitwise) {
  // Sizes below, at and above the fused head (whose last stage is len
  // 8), with both parities of the stage count left after it: n = 1024
  // leaves seven stages (three pairs and one single), n = 2048 eight.
  const Kernels& ref = kernels_for(Isa::kScalar);
  struct Case {
    std::size_t n, len;
  };
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (const Case c : {Case{2, 2}, Case{4, 2}, Case{8, 16}, Case{16, 16},
                         Case{32, 16}, Case{64, 16}, Case{128, 16},
                         Case{1024, 16}, Case{2048, 16}, Case{64, 4},
                         Case{32, 8}}) {
      const auto tw = random_complex_with_zeros(c.n - 1, 3300 + c.n);
      const auto data = random_complex_with_zeros(c.n, 3400 + c.n + c.len);
      auto want = data, got = data;
      ref.fft_stages(want.data(), tw.data(), c.n, c.len);
      k.fft_stages(got.data(), tw.data(), c.n, c.len);
      expect_bits_eq(got, want, "fft_stages", isa);
    }
  }
}

TEST(SimdKernels, FftUntangleMatchesScalarBitwise) {
  // half/2 from 1 up: the vector body's pairs, its scalar remainder and
  // the self-mirrored middle bin all get exercised.
  const Kernels& ref = kernels_for(Isa::kScalar);
  for (Isa isa : available_isas()) {
    const Kernels& k = kernels_for(isa);
    for (std::size_t half : {2u, 4u, 6u, 8u, 10u, 12u, 14u, 16u, 34u, 1024u,
                             2048u}) {
      const auto z = random_complex_with_zeros(half, 3500 + half);
      const auto w = random_complex_with_zeros(half + 1, 3600 + half);
      std::vector<Complex> want(half + 1), got(half + 1);
      ref.fft_untangle(z.data(), w.data(), want.data(), half);
      k.fft_untangle(z.data(), w.data(), got.data(), half);
      expect_bits_eq(got, want, "fft_untangle", isa);
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
  for (std::size_t n :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{16},
        std::size_t{32}, std::size_t{64}, std::size_t{128}, std::size_t{256},
        std::size_t{1024}, std::size_t{2048}, std::size_t{4096},  // pow2
        std::size_t{3}, std::size_t{5}, std::size_t{12}, std::size_t{100},
        std::size_t{1000}, std::size_t{2400}}) {  // Bluestein
    const auto in = random_complex(n, 2200 + n);
    const FftPlan plan(n);
    const auto fast = plan.transform(in);
    set_active_isa_for_testing(Isa::kScalar);
    const auto slow = plan.transform(in);
    set_active_isa_for_testing(before);
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_bits_eq(fast, slow, "planned FFT", before);
  }
}

TEST(SimdFft, RealPlanDispatchMatchesForcedScalarBitwise) {
  const Isa before = active_isa();
  for (std::size_t n :
       {std::size_t{4}, std::size_t{8}, std::size_t{16}, std::size_t{32},
        std::size_t{64}, std::size_t{128}, std::size_t{2048},
        std::size_t{4096}, std::size_t{8192},  // packed
        std::size_t{2400}}) {                  // promoted to complex
    const auto in = random_doubles(n, 2300 + n);
    const RealFftPlan plan(n);
    const auto fast = plan.spectrum(in);
    set_active_isa_for_testing(Isa::kScalar);
    const auto slow = plan.spectrum(in);
    set_active_isa_for_testing(before);
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_bits_eq(fast, slow, "planned real FFT", before);
  }
}

}  // namespace
}  // namespace mdn::dsp::simd
