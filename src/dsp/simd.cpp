#include "dsp/simd.h"

#include <atomic>
#include <cmath>
#include <limits>

#include "common/atomic.h"
#include "obs/metrics.h"

// The vector paths exist only for x86-64 under a GCC-compatible
// compiler and can be compiled out entirely with -DMDN_NO_SIMD=ON;
// every other configuration runs the scalar reference table.
#if !defined(MDN_NO_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define MDN_SIMD_X86 1
#include <immintrin.h>
#else
#define MDN_SIMD_X86 0
#endif

namespace mdn::dsp::simd {
namespace {

// std::complex<double> is layout-compatible with double[2] ([re, im]);
// the standard guarantees reinterpret_cast access (26.4.4).
inline const double* flat(const Complex* p) noexcept {
  return reinterpret_cast<const double*>(p);
}
inline double* flat(Complex* p) noexcept {
  return reinterpret_cast<double*>(p);
}

// --- scalar reference kernels ------------------------------------------
//
// These define the semantics every vector kernel must match bit-for-bit:
// per-element operation order exactly as written (mdn_dsp is compiled
// with -ffp-contract=off, so no FMA contraction sneaks in).

void mul_scalar(const double* a, const double* b, double* out,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void mag_scale_aos_scalar(const Complex* bins, double scale, double* out,
                          std::size_t n) {
  const double* v = flat(bins);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = v[2 * i], im = v[2 * i + 1];
    out[i] = std::sqrt(re * re + im * im) * scale;
  }
}

void butterfly_aos_scalar(Complex* a, Complex* b, const Complex* tw,
                          std::size_t half) {
  double* ap = flat(a);
  double* bp = flat(b);
  const double* wp = flat(tw);
  for (std::size_t k = 0; k < half; ++k) {
    const double wr = wp[2 * k], wi = wp[2 * k + 1];
    const double br = bp[2 * k], bi = bp[2 * k + 1];
    const double vr = br * wr - bi * wi;
    const double vi = br * wi + bi * wr;
    const double ar = ap[2 * k], ai = ap[2 * k + 1];
    ap[2 * k] = ar + vr;
    ap[2 * k + 1] = ai + vi;
    bp[2 * k] = ar - vr;
    bp[2 * k + 1] = ai - vi;
  }
}

double chunk_max_scalar(const double* x, std::size_t n) {
  double m = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > m) m = x[i];
  }
  return m;
}

constexpr Kernels kScalarKernels{
    mul_scalar,
    mag_scale_aos_scalar,
    butterfly_aos_scalar,
    chunk_max_scalar,
};

#if MDN_SIMD_X86

// --- AVX2 kernels ------------------------------------------------------
//
// Compiled with a per-function target attribute so the rest of the
// translation unit (and the whole build) stays generic x86-64; the
// dispatcher only hands these out when the CPU reports AVX2.

#define MDN_AVX2 __attribute__((target("avx2")))

MDN_AVX2 void mul_avx2(const double* a, const double* b, double* out,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

MDN_AVX2 void mag_scale_aos_avx2(const Complex* bins, double scale,
                                 double* out, std::size_t n) {
  const double* v = flat(bins);
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d c0 = _mm256_loadu_pd(v + 2 * i);      // [re0 im0 re1 im1]
    const __m256d c1 = _mm256_loadu_pd(v + 2 * i + 4);  // [re2 im2 re3 im3]
    const __m256d sq0 = _mm256_mul_pd(c0, c0);
    const __m256d sq1 = _mm256_mul_pd(c1, c1);
    // hadd within 128-bit lanes: [re0²+im0², re2²+im2², re1²+im1², ...]
    const __m256d sum = _mm256_hadd_pd(
        _mm256_permute2f128_pd(sq0, sq1, 0x20),
        _mm256_permute2f128_pd(sq0, sq1, 0x31));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(_mm256_sqrt_pd(sum), s));
  }
  for (; i < n; ++i) {
    const double re = v[2 * i], im = v[2 * i + 1];
    out[i] = std::sqrt(re * re + im * im) * scale;
  }
}

// Two complex values (256 bits) per iteration.  addsub computes
// [lo - x, hi + y] per 128-bit half — exactly vr = br*wr - bi*wi in the
// even lanes and vi = bi*wr + br*wi in the odd lanes.
MDN_AVX2 void butterfly_aos_avx2(Complex* a, Complex* b, const Complex* tw,
                                 std::size_t half) {
  double* ap = flat(a);
  double* bp = flat(b);
  const double* wp = flat(tw);
  std::size_t k = 0;
  for (; k + 2 <= half; k += 2) {
    const __m256d bv = _mm256_loadu_pd(bp + 2 * k);  // [br0 bi0 br1 bi1]
    const __m256d wv = _mm256_loadu_pd(wp + 2 * k);  // [wr0 wi0 wr1 wi1]
    const __m256d wr = _mm256_permute_pd(wv, 0b0000);  // [wr0 wr0 wr1 wr1]
    const __m256d wi = _mm256_permute_pd(wv, 0b1111);  // [wi0 wi0 wi1 wi1]
    const __m256d bs = _mm256_permute_pd(bv, 0b0101);  // [bi0 br0 bi1 br1]
    const __m256d v =
        _mm256_addsub_pd(_mm256_mul_pd(bv, wr), _mm256_mul_pd(bs, wi));
    const __m256d av = _mm256_loadu_pd(ap + 2 * k);
    _mm256_storeu_pd(ap + 2 * k, _mm256_add_pd(av, v));
    _mm256_storeu_pd(bp + 2 * k, _mm256_sub_pd(av, v));
  }
  if (k < half) butterfly_aos_scalar(a + k, b + k, tw + k, half - k);
}

MDN_AVX2 double chunk_max_avx2(const double* x, std::size_t n) {
  if (n < 8) return chunk_max_scalar(x, n);
  __m256d m = _mm256_loadu_pd(x);
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) m = _mm256_max_pd(m, _mm256_loadu_pd(x + i));
  double lanes[4];
  _mm256_storeu_pd(lanes, m);
  double best = lanes[0];
  for (int l = 1; l < 4; ++l) {
    if (lanes[l] > best) best = lanes[l];
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

constexpr Kernels kAvx2Kernels{
    mul_avx2,
    mag_scale_aos_avx2,
    butterfly_aos_avx2,
    chunk_max_avx2,
};

#endif  // MDN_SIMD_X86

Isa detect_isa() noexcept {
  return isa_available(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
}

// The whole dispatch state: selected once (lazily) and then read with
// one acquire load per call; active_isa() is derived from it.
// set_active_isa_for_testing may rewrite it; every initializer stores
// the same table, so the benign init race is fine.  Declared through
// the check shim (common/atomic.h): std::atomic in normal builds;
// tests/model/ verifies the single-init protocol.
check::Atomic<const Kernels*> g_active_table{nullptr};

const Kernels* init_active() MDN_CHECK_NOEXCEPT {
  const Kernels* table = &kernels_for(detect_isa());
  // mo: release publishes the (immutable, static) table selection to
  // active_kernels' acquire load
  g_active_table.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool isa_available(Isa isa) noexcept {
#if MDN_SIMD_X86
  if (isa == Isa::kAvx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  return isa == Isa::kScalar;
}

const Kernels& kernels_for(Isa isa) noexcept {
#if MDN_SIMD_X86
  if (isa == Isa::kAvx2 && isa_available(Isa::kAvx2)) return kAvx2Kernels;
#else
  (void)isa;
#endif
  return kScalarKernels;
}

Isa active_isa() MDN_CHECK_NOEXCEPT {
#if MDN_SIMD_X86
  if (&active_kernels() == &kAvx2Kernels) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

const Kernels& active_kernels() MDN_CHECK_NOEXCEPT {
  // mo: pairs with the release stores; the table the pointer leads to
  // must be visible before use
  const Kernels* table = g_active_table.load(std::memory_order_acquire);
  if (table == nullptr) table = init_active();
  return *table;
}

Isa set_active_isa_for_testing(Isa isa) MDN_CHECK_NOEXCEPT {
  const Isa previous = active_isa();
  if (!isa_available(isa)) return previous;
  // mo: release publishes the (immutable, static) table selection to
  // active_kernels' acquire load
  g_active_table.store(&kernels_for(isa), std::memory_order_release);
  return previous;
}

void reset_dispatch_for_testing() MDN_CHECK_NOEXCEPT {
  // mo: test-only teardown; callers quiesce the hot path first
  g_active_table.store(nullptr, std::memory_order_release);
}

void export_dispatch_metrics() {
  obs::Registry::global()
      .gauge("dsp/simd/dispatch")
      .set(static_cast<int>(active_isa()));
}

}  // namespace mdn::dsp::simd
