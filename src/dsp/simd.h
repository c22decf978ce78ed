// SIMD kernel dispatch for the DSP hot path.
//
// The detection loop spends its time in a handful of passes — window
// multiply, the planned FFT (a gather fused with the first three
// radix-2 stages, then two stages per pass), the real-FFT untangle,
// spectrum magnitudes and the peak-scan prescan.  Each has a vectorised
// AVX2 implementation plus a scalar reference, selected once at startup
// by runtime CPU detection and reached through a table of function
// pointers, so the per-call cost of dispatch is one pointer load.  A
// kernel earns a vector body only when a benchmark workload runs it and
// measures it faster (see DESIGN.md, "One implementation per hot path").
//
// Contract: the scalar kernels are the *reference semantics*.  Every
// vector kernel performs the identical arithmetic, in the identical
// per-element operation order, with no reassociation, no FMA
// contraction and no approximate instructions — so scalar and vector
// paths agree bit-for-bit on every finite input (the equivalence suite
// in tests/dsp/test_simd.cpp sweeps lengths that are not multiples of
// the vector width to pin down tail handling).  The FFT kernels may run
// independent butterflies in any order, since each butterfly still sees
// the same operands and the same twiddle; they never change which
// operations a butterfly performs.  Kernels take unaligned pointers;
// all loads/stores are unaligned-safe.
//
// Build-time opt-out: configure with -DMDN_NO_SIMD=ON (a compile-time
// switch, no environment variables — getenv is banned by the
// determinism lint) and only the scalar table is compiled in.  The
// selected path is exported as the gauge "dsp/simd/dispatch"
// (0=scalar, 2=avx2) so every bench JSON records which kernels
// produced its numbers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/annotations.h"
#include "common/check.h"  // MDN_CHECK_NOEXCEPT
#include "dsp/fft.h"  // dsp::Complex

namespace mdn::dsp::simd {

/// The values are the "dsp/simd/dispatch" gauge readings recorded in
/// blessed baselines; keep them stable.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 2,
};

/// Human-readable name ("scalar", "avx2").
const char* isa_name(Isa isa) noexcept;

/// Three-bit reversal: the order in which fft_head gathers a row.
inline constexpr std::uint32_t kBitrev3[8] = {0, 4, 2, 6, 1, 5, 3, 7};

/// The kernel table.  All kernels are safe on unaligned pointers, the
/// elementwise ones on any length (including 0); `out` may alias an
/// input where noted.
struct Kernels {
  /// out[i] = a[i] * b[i].  `out` may alias `a`.
  void (*mul)(const double* a, const double* b, double* out, std::size_t n);

  /// out[i] = sqrt(re(bins[i])^2 + im(bins[i])^2) * scale  (AoS complex).
  void (*mag_scale_aos)(const Complex* bins, double scale, double* out,
                        std::size_t n);

  /// Every FFT kernel below is built from one radix-2 butterfly on a
  /// pair (a, b) with twiddle w, spelled out on doubles:
  ///   v = b * w   (vr = br*wr - bi*wi, vi = br*wi + bi*wr)
  ///   a' = a + v,  b' = a - v
  /// `tw` is always a plan's whole stage-major twiddle table: the len/2
  /// factors of stage `len` start at tw[len/2 - 1].

  /// The bit-reversal gather fused with stages len 2, 4 and 8.  Writes
  /// `rows` rows of eight values; row r lands at out[r * out_stride ..
  /// + 8) and starts as
  ///   x[t] = z[bases[r] + kBitrev3[t] * src_stride],  t in [0, 8),
  /// where z[e] = (src[2e], src[2e + 1]), before its three stages run in
  /// registers.  `src` must not overlap the rows written.
  void (*fft_head)(const double* src, const std::uint32_t* bases,
                   std::size_t src_stride, const Complex* tw, Complex* out,
                   std::size_t out_stride, std::size_t rows);

  /// Stages len, 2*len, ..., n of an n-point transform whose earlier
  /// stages are done: two stages per pass over `data`, then one last
  /// stage when the count is odd.  No-op when len > n.
  void (*fft_stages)(Complex* data, const Complex* tw, std::size_t n,
                     std::size_t len);

  /// Packed-real untangle (half even, >= 2).  `z` is the half-point FFT
  /// of a real signal packed as (x[2i], x[2i+1]) and `w[k]` =
  /// exp(-2*pi*i*k / (2 * half)).  For k in [0, half/2], with b =
  /// conj(z[(half - k) % half]), even = 0.5 * (z[k] + b) and odd =
  /// (0 - 0.5i) * (z[k] - b):
  ///   X[k] = even + w[k] * odd,
  ///   X[half - k] = conj(even) + w[half - k] * conj(odd),
  /// the later write winning at k = half/2; then X[half] = (re z[0] -
  /// im z[0], 0).  The products and sums are those std::complex computes
  /// for finite operands.  Writes out[0..half]; `out` must not overlap
  /// `z`.
  void (*fft_untangle)(const Complex* z, const Complex* w, Complex* out,
                       std::size_t half);

  /// max(x[0..n)) with a plain elementwise maximum (no NaN handling —
  /// feed finite spectra only).  Returns -inf for n == 0.  Used to skip
  /// whole below-threshold chunks in the peak scan.
  double (*chunk_max)(const double* x, std::size_t n);
};

/// The ISA picked at startup (or forced for tests).
Isa active_isa() MDN_CHECK_NOEXCEPT;

/// The kernel table for the active ISA.  One acquire atomic load.
MDN_REALTIME const Kernels& active_kernels() MDN_CHECK_NOEXCEPT;

/// True when `isa` is usable in this build on this CPU.
bool isa_available(Isa isa) noexcept;

/// The kernel table for a specific ISA — scalar-backed when `isa` is
/// not available (check isa_available first when exactness matters).
/// For the equivalence tests; the hot path uses active_kernels().
const Kernels& kernels_for(Isa isa) noexcept;

/// Forces the active table (tests only; not thread-safe against
/// concurrent hot paths).  Returns the previously active ISA.  Pass an
/// unavailable ISA and the call is a no-op returning the current one.
Isa set_active_isa_for_testing(Isa isa) MDN_CHECK_NOEXCEPT;

/// Clears the dispatch state back to "never initialized" (tests only —
/// the model-check harness re-runs lazy init on every schedule).
void reset_dispatch_for_testing() MDN_CHECK_NOEXCEPT;

/// Sets the "dsp/simd/dispatch" gauge to the active ISA.  Called lazily
/// by the first active_kernels() user with registry access (detector
/// construction) and explicitly by benches/dashboards before export.
void export_dispatch_metrics();

}  // namespace mdn::dsp::simd
