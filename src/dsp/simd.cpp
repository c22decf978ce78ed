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

// One radix-2 butterfly (see Kernels): the arithmetic every FFT kernel
// performs, in the scalar table and, lane for lane, in the vector one.
inline void butterfly(double* a, double* b, const double* w) noexcept {
  const double wr = w[0], wi = w[1];
  const double br = b[0], bi = b[1];
  const double vr = br * wr - bi * wi;
  const double vi = br * wi + bi * wr;
  const double ar = a[0], ai = a[1];
  a[0] = ar + vr;
  a[1] = ai + vi;
  b[0] = ar - vr;
  b[1] = ai - vi;
}

void fft_head_scalar(const double* src, const std::uint32_t* bases,
                     std::size_t src_stride, const Complex* tw, Complex* out,
                     std::size_t out_stride, std::size_t rows) {
  const double* w = flat(tw);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* s = src + 2 * bases[r];
    double x[16];
    for (std::size_t t = 0; t < 8; ++t) {
      const double* e = s + 2 * kBitrev3[t] * src_stride;
      x[2 * t] = e[0];
      x[2 * t + 1] = e[1];
    }
    for (std::size_t len = 2; len <= 8; len *= 2) {
      const std::size_t half = len / 2;
      for (std::size_t i = 0; i < 8; i += len) {
        for (std::size_t k = 0; k < half; ++k) {
          butterfly(x + 2 * (i + k), x + 2 * (i + k + half),
                    w + 2 * (half - 1 + k));
        }
      }
    }
    double* o = flat(out + r * out_stride);
    for (std::size_t i = 0; i < 16; ++i) o[i] = x[i];
  }
}

void fft_stages_scalar(Complex* data, const Complex* tw, std::size_t n,
                       std::size_t len) {
  double* d = flat(data);
  // Stages len and 2*len in one pass: per k, the two stage-len
  // butterflies (x0, x1) and (x2, x3), then the two stage-2len ones
  // (x0, x2) and (x1, x3) on their outputs.
  for (; 2 * len <= n; len *= 4) {
    const std::size_t half = len / 2;
    const double* wa = flat(tw + half - 1);
    const double* wb = flat(tw + len - 1);
    for (std::size_t i = 0; i < n; i += 2 * len) {
      for (std::size_t k = 0; k < half; ++k) {
        double* x0 = d + 2 * (i + k);
        double* x1 = x0 + 2 * half;
        double* x2 = x0 + 2 * len;
        double* x3 = x2 + 2 * half;
        butterfly(x0, x1, wa + 2 * k);
        butterfly(x2, x3, wa + 2 * k);
        butterfly(x0, x2, wb + 2 * k);
        butterfly(x1, x3, wb + 2 * (k + half));
      }
    }
  }
  if (len <= n) {  // one stage left: len == n, a single block
    const std::size_t half = len / 2;
    const double* w = flat(tw + half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      butterfly(d + 2 * k, d + 2 * (k + half), w + 2 * k);
    }
  }
}

// The even/odd split of one untangle bin (see Kernels::fft_untangle):
// b = conj(m), even = 0.5 * (a + b), odd = (0 - 0.5i) * (a - b).
struct UntangleSplit {
  double er, ei, odr, odi;
};

inline UntangleSplit untangle_split(const double* a,
                                    const double* m) noexcept {
  const double br = m[0], bi = -m[1];
  const double sr = a[0] + br, si = a[1] + bi;
  const double dr = a[0] - br, di = a[1] - bi;
  return {0.5 * sr, 0.5 * si, 0.0 * dr - (-0.5 * di), 0.0 * di + -0.5 * dr};
}

// X[k] = even + w * odd.
inline void untangle_bin(const UntangleSplit& s, const double* w,
                         double* out) noexcept {
  const double pr = w[0] * s.odr - w[1] * s.odi;
  const double pi = w[0] * s.odi + w[1] * s.odr;
  out[0] = s.er + pr;
  out[1] = s.ei + pi;
}

// X[half - k] = conj(even) + w * conj(odd).
inline void untangle_mirror(const UntangleSplit& s, const double* w,
                            double* out) noexcept {
  const double oi = -s.odi;
  const double pr = w[0] * s.odr - w[1] * oi;
  const double pi = w[0] * oi + w[1] * s.odr;
  out[0] = s.er + pr;
  out[1] = -s.ei + pi;
}

// The untangle from bin pair k = `from` on: the pairs (k, half - k) up
// to half/2, the self-mirrored bin half/2 and the Nyquist bin.  Bin 0
// (whose mirror is the Nyquist bin) is the caller's.
void untangle_from(const double* z, const double* w, double* out,
                   std::size_t half, std::size_t from) noexcept {
  const std::size_t mid = half / 2;
  for (std::size_t k = from; k < mid; ++k) {
    const UntangleSplit s = untangle_split(z + 2 * k, z + 2 * (half - k));
    untangle_bin(s, w + 2 * k, out + 2 * k);
    untangle_mirror(s, w + 2 * (half - k), out + 2 * (half - k));
  }
  untangle_mirror(untangle_split(z + 2 * mid, z + 2 * mid), w + 2 * mid,
                  out + 2 * mid);
  out[2 * half] = z[0] - z[1];
  out[2 * half + 1] = 0.0;
}

void fft_untangle_scalar(const Complex* z, const Complex* w, Complex* out,
                         std::size_t half) {
  const double* zp = flat(z);
  const double* wp = flat(w);
  double* op = flat(out);
  untangle_bin(untangle_split(zp, zp), wp, op);
  untangle_from(zp, wp, op, half, 1);
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
    fft_head_scalar,
    fft_stages_scalar,
    fft_untangle_scalar,
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

// v = b * w on two complex values (256 bits).  addsub computes
// [lo - x, hi + y] per 128-bit half — exactly vr = br*wr - bi*wi in the
// even lanes and vi = bi*wr + br*wi in the odd lanes.
MDN_AVX2 inline __m256d cmul_avx2(__m256d b, __m256d w) {
  const __m256d wr = _mm256_permute_pd(w, 0b0000);  // [wr0 wr0 wr1 wr1]
  const __m256d wi = _mm256_permute_pd(w, 0b1111);  // [wi0 wi0 wi1 wi1]
  const __m256d bs = _mm256_permute_pd(b, 0b0101);  // [bi0 br0 bi1 br1]
  return _mm256_addsub_pd(_mm256_mul_pd(b, wr), _mm256_mul_pd(bs, wi));
}

// Two butterflies side by side: (a[j], b[j]) with twiddle w[j].
MDN_AVX2 inline void butterfly_avx2(__m256d& a, __m256d& b, __m256d w) {
  const __m256d v = cmul_avx2(b, w);
  const __m256d a0 = a;
  a = _mm256_add_pd(a0, v);
  b = _mm256_sub_pd(a0, v);
}

// [*lo, *hi] from two unaligned complex values.
MDN_AVX2 inline __m256d load_two(const double* lo, const double* hi) {
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                              _mm_loadu_pd(hi), 1);
}

// The gathered row x[t] = s[kBitrev3[t]] sits in four registers chosen
// so each stage's pairs line up lane for lane: len 2 pairs [x0 x2] with
// [x1 x3] and [x4 x6] with [x5 x7]; 128-bit shuffles then regroup them
// into [y0 y1] [y2 y3] [y4 y5] [y6 y7] for len 4, which already lines
// up len 8.
MDN_AVX2 void fft_head_avx2(const double* src, const std::uint32_t* bases,
                            std::size_t src_stride, const Complex* tw,
                            Complex* out, std::size_t out_stride,
                            std::size_t rows) {
  const double* w = flat(tw);
  const __m256d w2 = load_two(w, w);
  const __m256d w4 = _mm256_loadu_pd(w + 2);
  const __m256d w8lo = _mm256_loadu_pd(w + 6);
  const __m256d w8hi = _mm256_loadu_pd(w + 10);
  const std::size_t st = 2 * src_stride;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* s = src + 2 * bases[r];
    __m256d a = load_two(s, s + 2 * st);           // [s0 s2] = [x0 x2]
    __m256d b = load_two(s + 4 * st, s + 6 * st);  // [s4 s6] = [x1 x3]
    __m256d c = load_two(s + st, s + 3 * st);      // [s1 s3] = [x4 x6]
    __m256d d = load_two(s + 5 * st, s + 7 * st);  // [s5 s7] = [x5 x7]
    butterfly_avx2(a, b, w2);
    butterfly_avx2(c, d, w2);
    __m256d p = _mm256_permute2f128_pd(a, b, 0x20);  // [y0 y1]
    __m256d q = _mm256_permute2f128_pd(a, b, 0x31);  // [y2 y3]
    __m256d u = _mm256_permute2f128_pd(c, d, 0x20);  // [y4 y5]
    __m256d v = _mm256_permute2f128_pd(c, d, 0x31);  // [y6 y7]
    butterfly_avx2(p, q, w4);
    butterfly_avx2(u, v, w4);
    butterfly_avx2(p, u, w8lo);
    butterfly_avx2(q, v, w8hi);
    double* o = flat(out + r * out_stride);
    _mm256_storeu_pd(o, p);
    _mm256_storeu_pd(o + 4, q);
    _mm256_storeu_pd(o + 8, u);
    _mm256_storeu_pd(o + 12, v);
  }
}

// The scalar schedule, two values of k per iteration.  Stages below len
// 4 have one butterfly per block, so those (n <= 4 only) run scalar.
MDN_AVX2 void fft_stages_avx2(Complex* data, const Complex* tw,
                              std::size_t n, std::size_t len) {
  if (len < 4) {
    fft_stages_scalar(data, tw, n, len);
    return;
  }
  double* d = flat(data);
  for (; 2 * len <= n; len *= 4) {
    const std::size_t half = len / 2;
    const double* wa = flat(tw + half - 1);
    const double* wb = flat(tw + len - 1);
    for (std::size_t i = 0; i < n; i += 2 * len) {
      for (std::size_t k = 0; k < half; k += 2) {
        double* p0 = d + 2 * (i + k);
        double* p1 = p0 + 2 * half;
        double* p2 = p0 + 2 * len;
        double* p3 = p2 + 2 * half;
        __m256d x0 = _mm256_loadu_pd(p0);
        __m256d x1 = _mm256_loadu_pd(p1);
        __m256d x2 = _mm256_loadu_pd(p2);
        __m256d x3 = _mm256_loadu_pd(p3);
        const __m256d a = _mm256_loadu_pd(wa + 2 * k);
        butterfly_avx2(x0, x1, a);
        butterfly_avx2(x2, x3, a);
        butterfly_avx2(x0, x2, _mm256_loadu_pd(wb + 2 * k));
        butterfly_avx2(x1, x3, _mm256_loadu_pd(wb + 2 * (k + half)));
        _mm256_storeu_pd(p0, x0);
        _mm256_storeu_pd(p1, x1);
        _mm256_storeu_pd(p2, x2);
        _mm256_storeu_pd(p3, x3);
      }
    }
  }
  if (len <= n) {
    const std::size_t half = len / 2;
    const double* w = flat(tw + half - 1);
    for (std::size_t k = 0; k < half; k += 2) {
      __m256d a = _mm256_loadu_pd(d + 2 * k);
      __m256d b = _mm256_loadu_pd(d + 2 * (k + half));
      butterfly_avx2(a, b, _mm256_loadu_pd(w + 2 * k));
      _mm256_storeu_pd(d + 2 * k, a);
      _mm256_storeu_pd(d + 2 * (k + half), b);
    }
  }
}

// Swaps the two complex values of a register.
MDN_AVX2 inline __m256d swap_halves(__m256d x) {
  return _mm256_permute2f128_pd(x, x, 0x01);
}

// Bins k and k + 1 per iteration, their mirrors half - k and
// half - k - 1 loaded and stored with the halves swapped.  Conjugation
// flips the sign bit, as scalar negation does.
MDN_AVX2 void fft_untangle_avx2(const Complex* z, const Complex* w,
                                Complex* out, std::size_t half) {
  const double* zp = flat(z);
  const double* wp = flat(w);
  double* op = flat(out);
  untangle_bin(untangle_split(zp, zp), wp, op);
  const __m256d conj_mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d pos_half = _mm256_set1_pd(0.5);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  const std::size_t mid = half / 2;
  std::size_t k = 1;
  for (; k + 1 < mid; k += 2) {
    const __m256d a = _mm256_loadu_pd(zp + 2 * k);
    const __m256d b = _mm256_xor_pd(
        swap_halves(_mm256_loadu_pd(zp + 2 * (half - k - 1))), conj_mask);
    const __m256d even = _mm256_mul_pd(pos_half, _mm256_add_pd(a, b));
    const __m256d diff = _mm256_sub_pd(a, b);
    // [0*dr - (-0.5*di), 0*di + (-0.5*dr)]
    const __m256d odd = _mm256_addsub_pd(
        _mm256_mul_pd(zero, diff),
        _mm256_mul_pd(neg_half, _mm256_permute_pd(diff, 0b0101)));
    _mm256_storeu_pd(op + 2 * k, _mm256_add_pd(
        even, cmul_avx2(odd, _mm256_loadu_pd(wp + 2 * k))));
    const __m256d wm = swap_halves(_mm256_loadu_pd(wp + 2 * (half - k - 1)));
    const __m256d mirror =
        _mm256_add_pd(_mm256_xor_pd(even, conj_mask),
                      cmul_avx2(_mm256_xor_pd(odd, conj_mask), wm));
    _mm256_storeu_pd(op + 2 * (half - k - 1), swap_halves(mirror));
  }
  untangle_from(zp, wp, op, half, k);
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
    fft_head_avx2,
    fft_stages_avx2,
    fft_untangle_avx2,
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
