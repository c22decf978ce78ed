#include "dsp/fft_plan.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "dsp/simd.h"

namespace mdn::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

// Stages with fewer butterflies than this run inline scalar code instead
// of an indirect kernel call: on the early stages (len 2..8) the call
// itself would cost more than the arithmetic.  Harmless for the
// SIMD-vs-scalar contract — the inline body is the scalar reference
// arithmetic, and every vector kernel matches it bit-for-bit anyway.
constexpr std::size_t kKernelMinHalf = 8;

// Bit-reversal index table for an n-point (power-of-two) transform.
std::vector<std::uint32_t> make_bitrev(std::size_t n) {
  std::vector<std::uint32_t> table(n);
  std::size_t j = 0;
  table[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    while (j & bit) {
      j ^= bit;
      bit >>= 1;
    }
    j |= bit;
    table[i] = static_cast<std::uint32_t>(j);
  }
  return table;
}

// Stage-major twiddle table, n - 1 entries in total: the len/2 factors
// exp(sign * 2*pi*i*k/len) of stage `len` are stored contiguously, in
// stage order (len = 2, 4, ..., n).  The butterfly loop then walks each
// stage's slice sequentially — unit-stride loads instead of a strided
// gather through one shared table.
std::vector<Complex> make_twiddles(std::size_t n, bool inverse) {
  const double sign = inverse ? 2.0 : -2.0;
  std::vector<Complex> w;
  w.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double angle = sign * kPi * static_cast<double>(k) /
                           static_cast<double>(len);
      w.push_back(Complex{std::cos(angle), std::sin(angle)});
    }
  }
  return w;
}

// Bluestein's pointwise multiply, out[i] = a[i] * b[i], spelled out on
// doubles like the butterflies: re = ar*br - ai*bi, im = ar*bi + ai*br.
// `out` may alias `a`.
void cmul(const Complex* a, const Complex* b, Complex* out, std::size_t n) {
  const double* ap = reinterpret_cast<const double*>(a);
  const double* bp = reinterpret_cast<const double*>(b);
  double* op = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < n; ++i) {
    const double ar = ap[2 * i], ai = ap[2 * i + 1];
    const double br = bp[2 * i], bi = bp[2 * i + 1];
    const double re = ar * br - ai * bi;
    const double im = ar * bi + ai * br;
    op[2 * i] = re;
    op[2 * i + 1] = im;
  }
}

}  // namespace

FftPlan::FftPlan(std::size_t size, bool inverse)
    : n_(size), inverse_(inverse) {
  if (n_ <= 1) return;  // 0- and 1-point transforms are the identity
  if (is_power_of_two(n_)) {
    bitrev_ = make_bitrev(n_);
    twiddles_ = make_twiddles(n_, inverse_);
    return;
  }

  // Bluestein chirp-z: X = w * IFFT(FFT(x*w) .* FFT(b)) where
  // w[k] = exp(sign*i*pi*k^2/n) and b[k] = conj(w[|k|]).  Everything that
  // depends only on n is precomputed here, including FFT(b).
  const double sign = inverse_ ? 1.0 : -1.0;
  chirp_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    // k^2 mod 2n keeps the argument small without changing the value.
    const auto k2 = static_cast<double>((k * k) % (2 * n_));
    const double angle = sign * kPi * k2 / static_cast<double>(n_);
    chirp_[k] = Complex{std::cos(angle), std::sin(angle)};
  }

  m_ = next_power_of_two(2 * n_ - 1);
  conv_forward_ = std::make_unique<FftPlan>(m_, false);
  conv_inverse_ = std::make_unique<FftPlan>(m_, true);

  kernel_fft_.assign(m_, Complex{0.0, 0.0});
  kernel_fft_[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    kernel_fft_[k] = std::conj(chirp_[k]);
    kernel_fft_[m_ - k] = kernel_fft_[k];
  }
  conv_forward_->execute(kernel_fft_);
}

void FftPlan::execute_pow2(std::span<Complex> data) const noexcept {
  // Permute, then iterate stages walking that stage's twiddle slice
  // sequentially: no trig, no allocation, no accumulated recurrence
  // error.  The butterflies spell out the complex arithmetic on doubles
  // — table entries are always finite, so this skips the NaN fix-up
  // branch (and its scalar recompute) that std::complex operator*
  // carries, about half the per-butterfly instruction count.
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const simd::Kernels& kern = simd::active_kernels();
  const Complex* stage = twiddles_.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    if (half < kKernelMinHalf) {
      for (std::size_t i = 0; i < n; i += len) {
        Complex* a = &data[i];
        Complex* b = a + half;
        for (std::size_t k = 0; k < half; ++k) {
          const double wr = stage[k].real(), wi = stage[k].imag();
          const double br = b[k].real(), bi = b[k].imag();
          const double vr = br * wr - bi * wi;
          const double vi = br * wi + bi * wr;
          const double ar = a[k].real(), ai = a[k].imag();
          a[k] = Complex{ar + vr, ai + vi};
          b[k] = Complex{ar - vr, ai - vi};
        }
      }
    } else {
      for (std::size_t i = 0; i < n; i += len) {
        Complex* a = &data[i];
        kern.butterfly_aos(a, a + half, stage, half);
      }
    }
    stage += half;
  }
}

void FftPlan::execute(std::span<Complex> data,
                      std::span<Complex> scratch) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan::execute: size mismatch");
  }
  if (n_ <= 1) return;
  if (m_ == 0) {
    execute_pow2(data);
    return;
  }

  if (scratch.size() < m_) {
    throw std::invalid_argument("FftPlan::execute: scratch too small");
  }
  // a = (x .* w) zero-padded to m, convolved with the precomputed kernel.
  std::span<Complex> a = scratch.first(m_);
  cmul(data.data(), chirp_.data(), a.data(), n_);
  for (std::size_t k = n_; k < m_; ++k) a[k] = Complex{0.0, 0.0};
  conv_forward_->execute_pow2(a);
  cmul(a.data(), kernel_fft_.data(), a.data(), m_);
  conv_inverse_->execute_pow2(a);
  const double scale = 1.0 / static_cast<double>(m_);
  cmul(a.data(), chirp_.data(), data.data(), n_);
  for (std::size_t k = 0; k < n_; ++k) {
    data[k] = Complex{data[k].real() * scale, data[k].imag() * scale};
  }
}

std::vector<Complex> FftPlan::transform(std::span<const Complex> input) const {
  std::vector<Complex> data(input.begin(), input.end());
  std::vector<Complex> scratch(scratch_size());
  execute(data, scratch);
  return data;
}

RealFftPlan::RealFftPlan(std::size_t size) : n_(size) {
  if (n_ >= 4 && is_power_of_two(n_)) {
    const std::size_t half = n_ / 2;
    half_plan_ = std::make_unique<FftPlan>(half, false);
    untangle_.resize(half + 1);
    for (std::size_t k = 0; k <= half; ++k) {
      const double angle = -2.0 * kPi * static_cast<double>(k) /
                           static_cast<double>(n_);
      untangle_[k] = Complex{std::cos(angle), std::sin(angle)};
    }
    scratch_size_ = half;
    return;
  }
  full_plan_ = std::make_unique<FftPlan>(n_, false);
  scratch_size_ = n_ + full_plan_->scratch_size();
}

void RealFftPlan::execute(std::span<const double> input,
                          std::span<Complex> out_bins,
                          std::span<Complex> scratch) const {
  if (input.size() != n_) {
    throw std::invalid_argument("RealFftPlan::execute: size mismatch");
  }
  if (n_ == 0) return;
  if (out_bins.size() < bins()) {
    throw std::invalid_argument("RealFftPlan::execute: out_bins too small");
  }
  if (scratch.size() < scratch_size_) {
    throw std::invalid_argument("RealFftPlan::execute: scratch too small");
  }

  if (half_plan_ != nullptr) {
    // Packed-real: transform the N real samples as an N/2-point complex
    // FFT, then untangle even/odd with the precomputed coefficients.
    const std::size_t half = n_ / 2;
    std::span<Complex> z = scratch.first(half);
    for (std::size_t i = 0; i < half; ++i) {
      z[i] = Complex{input[2 * i], input[2 * i + 1]};
    }
    half_plan_->execute(z);

    for (std::size_t k = 0; k <= half / 2; ++k) {
      const std::size_t km = (half - k) % half;
      const Complex a = z[k];
      const Complex b = std::conj(z[km]);
      const Complex even = 0.5 * (a + b);
      const Complex odd = Complex{0.0, -0.5} * (a - b);
      out_bins[k] = even + untangle_[k] * odd;
      // The mirrored entry X[half - k] from the conjugated split.
      out_bins[half - k] =
          std::conj(even) + untangle_[half - k] * std::conj(odd);
    }
    // X[half] (Nyquist) from the even/odd split at k = 0.
    out_bins[half] = Complex{z[0].real() - z[0].imag(), 0.0};
    return;
  }

  // Fallback: promote to complex in scratch and run the full plan.
  std::span<Complex> data = scratch.first(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] = Complex{input[i], 0.0};
  full_plan_->execute(data, scratch.subspan(n_));
  for (std::size_t k = 0; k < bins(); ++k) out_bins[k] = data[k];
}

std::vector<Complex> RealFftPlan::spectrum(
    std::span<const double> input) const {
  std::vector<Complex> out(bins());
  std::vector<Complex> scratch(scratch_size());
  execute(input, out, scratch);
  return out;
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> PlanCache::complex_plan(std::size_t size,
                                                       bool inverse) {
  const std::pair<std::size_t, bool> key{size, inverse};
  common::MutexLock lock(mu_);
  auto it = complex_.find(key);
  if (it == complex_.end()) {
    it = complex_.emplace(key, std::make_shared<FftPlan>(size, inverse))
             .first;
    ++constructions_;
  }
  return it->second;
}

std::shared_ptr<const RealFftPlan> PlanCache::real_plan(std::size_t size) {
  common::MutexLock lock(mu_);
  auto it = real_.find(size);
  if (it == real_.end()) {
    it = real_.emplace(size, std::make_shared<RealFftPlan>(size)).first;
    ++constructions_;
  }
  return it->second;
}

std::size_t PlanCache::size() const {
  common::MutexLock lock(mu_);
  return complex_.size() + real_.size();
}

std::size_t PlanCache::constructions_for_testing() const {
  common::MutexLock lock(mu_);
  return constructions_;
}

}  // namespace mdn::dsp
