// Planned FFT engine: precomputed twiddles, zero-allocation execution.
//
// The free functions in dsp/fft.h recompute sin/cos twiddle factors and
// heap-allocate working buffers on every call.  That is fine for one-off
// analysis, but the tone-detection hot loop (microphone block → window →
// FFT → peak match, Fig 2b) runs the *same* transform size thousands of
// times per second.  Following the classic FFTW "plan once, execute many"
// design, a plan precomputes everything that depends only on the
// transform size and direction:
//   * Radix2Schedule — the one power-of-two transform every plan runs: a
//                    stage-major twiddle table and the bit-reversed
//                    start of each eight-value row.  transform_pairs()
//                    gathers the input in bit-reversed order fused with
//                    the first three radix-2 stages, then runs the rest
//                    two stages per pass (the dsp/simd.h FFT kernels);
//   * FftPlan      — complex DFT of any length: one schedule for
//                    power-of-two sizes, a precomputed Bluestein chirp +
//                    convolution kernel and two schedules for everything
//                    else;
//   * RealFftPlan  — forward DFT of a real signal producing the
//                    single-sided half spectrum: a half-size schedule
//                    fed the samples as packed complex pairs, plus
//                    precomputed untangle coefficients;
//   * PlanCache    — thread-safe process-wide cache keyed by (size,
//                    direction) so every subsystem asking for the same
//                    transform shares one table set.
//
// Every butterfly sees the operands and twiddle of the textbook
// iterative radix-2 loop (bit-reversal swap pass, then stage by stage);
// only the order of independent butterflies and the number of memory
// passes differ, so the spectra are bit-identical to that loop's.
//
// The rule is "plan cold, execute hot": build or fetch a plan at
// construction time, then execute() into caller-provided buffers — the
// steady state performs zero heap allocations.  Plans are immutable
// after construction and execute() is const, so one plan may be executed
// concurrently from many threads (each thread brings its own scratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "dsp/fft.h"

namespace mdn::dsp {

/// A power-of-two complex DFT schedule (size 0 means "none").  Shared
/// by FftPlan, its Bluestein convolutions and RealFftPlan.
class Radix2Schedule {
 public:
  Radix2Schedule() = default;
  /// Plans a `size`-point transform (size a power of two >= 2);
  /// `inverse` selects the conjugate twiddles.
  Radix2Schedule(std::size_t size, bool inverse);

  std::size_t size() const noexcept { return n_; }

  /// Transforms z[i] = (src[2i], src[2i + 1]), i < size(), into
  /// out[0, size()).  `src` either is the flat view of `out` (an
  /// in-place transform) or does not overlap it.  No allocation.
  void transform_pairs(const double* src, Complex* out) const noexcept;

 private:
  std::size_t n_ = 0;
  // rows_[j] = bit reversal of 8j: the first source of output row j
  // (size >= 8 only).
  std::vector<std::uint32_t> rows_;
  // Stage-major twiddle table (n - 1 entries): the len/2 factors of
  // stage `len` stored contiguously, stage after stage.
  std::vector<Complex> twiddles_;
};

/// A planned complex DFT of a fixed size and direction.
class FftPlan {
 public:
  /// Plans an `size`-point transform.  `inverse` selects the conjugate
  /// (unscaled) transform; like fft_radix2_inplace, the 1/N scale of a
  /// true inverse is left to the caller.
  explicit FftPlan(std::size_t size, bool inverse = false);

  std::size_t size() const noexcept { return n_; }
  bool inverse() const noexcept { return inverse_; }

  /// Number of Complex scratch elements execute() needs.  Zero for
  /// power-of-two sizes; the Bluestein convolution length otherwise.
  std::size_t scratch_size() const noexcept { return m_; }

  /// In-place transform of `data` (data.size() == size()).  `scratch`
  /// must provide at least scratch_size() elements; it may be empty for
  /// power-of-two sizes.  Performs no heap allocation.
  MDN_REALTIME void execute(std::span<Complex> data,
                            std::span<Complex> scratch = {}) const;

  /// Convenience out-of-place form (allocates the result and scratch).
  std::vector<Complex> transform(std::span<const Complex> input) const;

 private:
  std::size_t n_;
  bool inverse_;
  // Power-of-two path.
  Radix2Schedule pow2_;
  // Bluestein path (non power-of-two): chirp w[k], the forward FFT of
  // the convolution kernel, and the two length-m_ convolution schedules.
  std::size_t m_ = 0;
  std::vector<Complex> chirp_;
  std::vector<Complex> kernel_fft_;
  Radix2Schedule conv_forward_;
  Radix2Schedule conv_inverse_;
};

/// A planned forward DFT of a real signal, producing the single-sided
/// spectrum (bins [0, N/2]; the upper half is its conjugate mirror).
/// Power-of-two sizes >= 4 use the packed-real trick (an N/2-point
/// complex FFT that gathers the samples as pairs, plus a precomputed
/// untangle pass) — roughly half the cost of promoting to complex.
/// Other sizes fall back to a complex plan.
class RealFftPlan {
 public:
  explicit RealFftPlan(std::size_t size);

  std::size_t size() const noexcept { return n_; }
  /// Number of output bins: N/2 + 1.
  std::size_t bins() const noexcept { return n_ == 0 ? 0 : n_ / 2 + 1; }
  /// Number of Complex scratch elements execute() needs.
  std::size_t scratch_size() const noexcept { return scratch_size_; }

  /// Transforms `input` (input.size() == size()) into `out_bins`
  /// (out_bins.size() >= bins()).  `scratch` must provide at least
  /// scratch_size() elements.  Performs no heap allocation.
  MDN_REALTIME void execute(std::span<const double> input,
                            std::span<Complex> out_bins,
                            std::span<Complex> scratch) const;

  /// Convenience form returning the bins() half spectrum (allocates).
  std::vector<Complex> spectrum(std::span<const double> input) const;

 private:
  std::size_t n_;
  std::size_t scratch_size_ = 0;
  // Packed path: half-size schedule + untangle twiddles
  // w_k = exp(-2*pi*i*k/n) for k in [0, n/2].
  Radix2Schedule half_;
  std::vector<Complex> untangle_;
  // Fallback path: full-size complex plan (promote to complex).
  std::unique_ptr<FftPlan> full_plan_;
};

/// Thread-safe process-wide plan cache.  Plans are built on first
/// request and shared (they are immutable, so concurrent execute() on a
/// cached plan is safe).  The free functions in dsp/fft.h fetch their
/// plans here, so legacy callers transparently reuse the tables.
class PlanCache {
 public:
  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  static PlanCache& global();

  std::shared_ptr<const FftPlan> complex_plan(std::size_t size,
                                              bool inverse = false);
  std::shared_ptr<const RealFftPlan> real_plan(std::size_t size);

  /// Number of distinct plans cached (for tests / introspection).
  std::size_t size() const;

  /// Plans this cache has constructed (i.e. cache misses) since
  /// creation.  Test-only hook: the concurrent first-touch test proves
  /// N racing threads requesting one size cause exactly one build.
  std::size_t constructions_for_testing() const;

 private:
  mutable common::Mutex mu_;
  std::map<std::pair<std::size_t, bool>, std::shared_ptr<const FftPlan>>
      complex_ MDN_GUARDED_BY(mu_);
  std::map<std::size_t, std::shared_ptr<const RealFftPlan>> real_
      MDN_GUARDED_BY(mu_);
  std::size_t constructions_ MDN_GUARDED_BY(mu_) = 0;
};

}  // namespace mdn::dsp
