// SIMD kernel dispatch for the DSP hot path.
//
// The detection loop spends its time in four elementwise passes —
// window multiply, FFT butterflies, spectrum magnitudes and the
// peak-scan prescan.  Each has a vectorised AVX2 implementation plus a
// scalar reference, selected once at startup by runtime CPU detection
// and reached through a table of function pointers, so the per-call
// cost of dispatch is one pointer load.  A kernel earns a vector body
// only when a benchmark workload runs it and measures it faster (see
// DESIGN.md, "One implementation per hot path").
//
// Contract: the scalar kernels are the *reference semantics*.  Every
// vector kernel performs the identical arithmetic, in the identical
// per-element operation order, with no reassociation, no FMA
// contraction and no approximate instructions — so scalar and vector
// paths agree bit-for-bit on every finite input (the equivalence suite
// in tests/dsp/test_simd.cpp sweeps lengths that are not multiples of
// the vector width to pin down tail handling).  Kernels take
// unaligned pointers; all loads/stores are unaligned-safe.
//
// Build-time opt-out: configure with -DMDN_NO_SIMD=ON (a compile-time
// switch, no environment variables — getenv is banned by the
// determinism lint) and only the scalar table is compiled in.  The
// selected path is exported as the gauge "dsp/simd/dispatch"
// (0=scalar, 2=avx2) so every bench JSON records which kernels
// produced its numbers.
#pragma once

#include <cstddef>

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

/// The kernel table.  All kernels are safe on unaligned pointers and
/// any length (including 0); `out` may alias an input where noted.
struct Kernels {
  /// out[i] = a[i] * b[i].  `out` may alias `a`.
  void (*mul)(const double* a, const double* b, double* out, std::size_t n);

  /// out[i] = sqrt(re(bins[i])^2 + im(bins[i])^2) * scale  (AoS complex).
  void (*mag_scale_aos)(const Complex* bins, double scale, double* out,
                        std::size_t n);

  /// One FFT butterfly slice over contiguous k in [0, half):
  ///   v    = b[k] * tw[k]   (vr = br*wr - bi*wi, vi = br*wi + bi*wr)
  ///   b[k] = a[k] - v,  a[k] = a[k] + v
  void (*butterfly_aos)(Complex* a, Complex* b, const Complex* tw,
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
