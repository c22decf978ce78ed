#include "dsp/fft_plan.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/simd.h"

namespace mdn::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

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
// stage order (len = 2, 4, ..., n).  The stage kernels then read each
// stage's slice at unit stride instead of gathering through one shared
// table.
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

inline const double* flat(const Complex* p) noexcept {
  return reinterpret_cast<const double*>(p);
}

}  // namespace

Radix2Schedule::Radix2Schedule(std::size_t size, bool inverse)
    : n_(size), twiddles_(make_twiddles(size, inverse)) {
  // Output row j (8 values at 8j) starts from the bit reversal of 8j,
  // which is the (log2 n - 3)-bit reversal of j.
  if (n_ >= 8) rows_ = make_bitrev(n_ / 8);
}

void Radix2Schedule::transform_pairs(const double* src,
                                     Complex* out) const noexcept {
  const simd::Kernels& kern = simd::active_kernels();
  const Complex* tw = twiddles_.data();
  const std::size_t n = n_;
  if (n < 8) {
    // Two or four points: reverse the index bits while copying (through
    // a local, so `src` may be `out`), then run every stage.
    Complex z[4];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = simd::kBitrev3[i] * n / 8;
      z[i] = Complex{src[2 * j], src[2 * j + 1]};
    }
    std::copy_n(z, n, out);
    kern.fft_stages(out, tw, n, 2);
    return;
  }
  const std::size_t stride = n / 8;
  if (src != flat(out)) {
    kern.fft_head(src, rows_.data(), stride, tw, out, 8, stride);
  } else if (n < 64) {
    double copy[64];
    std::copy_n(src, 2 * n, copy);
    kern.fft_head(copy, rows_.data(), stride, tw, out, 8, stride);
  } else {
    // In place, by tiles of 8x8 values: tile c is the eight runs
    // a * stride + 8c + [0, 8), a in [0, 8).  Output tile c reads only
    // input tile rows_[c] / 8 (its run a gathers column kBitrev3[a] of
    // that tile), so each pair of tiles is copied out before either is
    // written.
    double tiles[256];
    for (std::size_t c = 0; c < n / 64; ++c) {
      const std::size_t partner = rows_[c] / 8;
      if (partner < c) continue;
      for (std::size_t a = 0; a < 8; ++a) {
        std::copy_n(src + 2 * (a * stride + 8 * partner), 16, tiles + 16 * a);
        std::copy_n(src + 2 * (a * stride + 8 * c), 16, tiles + 128 + 16 * a);
      }
      kern.fft_head(tiles, simd::kBitrev3, 8, tw, out + 8 * c, stride, 8);
      if (partner != c) {
        kern.fft_head(tiles + 128, simd::kBitrev3, 8, tw, out + 8 * partner,
                      stride, 8);
      }
    }
  }
  kern.fft_stages(out, tw, n, 16);
}

FftPlan::FftPlan(std::size_t size, bool inverse)
    : n_(size), inverse_(inverse) {
  if (n_ <= 1) return;  // 0- and 1-point transforms are the identity
  if (is_power_of_two(n_)) {
    pow2_ = Radix2Schedule(n_, inverse_);
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
  conv_forward_ = Radix2Schedule(m_, false);
  conv_inverse_ = Radix2Schedule(m_, true);

  kernel_fft_.assign(m_, Complex{0.0, 0.0});
  kernel_fft_[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n_; ++k) {
    kernel_fft_[k] = std::conj(chirp_[k]);
    kernel_fft_[m_ - k] = kernel_fft_[k];
  }
  conv_forward_.transform_pairs(flat(kernel_fft_.data()),
                                kernel_fft_.data());
}

void FftPlan::execute(std::span<Complex> data,
                      std::span<Complex> scratch) const {
  if (data.size() != n_) {
    throw std::invalid_argument("FftPlan::execute: size mismatch");
  }
  if (n_ <= 1) return;
  if (m_ == 0) {
    pow2_.transform_pairs(flat(data.data()), data.data());
    return;
  }

  if (scratch.size() < m_) {
    throw std::invalid_argument("FftPlan::execute: scratch too small");
  }
  // a = (x .* w) zero-padded to m, convolved with the precomputed kernel.
  std::span<Complex> a = scratch.first(m_);
  cmul(data.data(), chirp_.data(), a.data(), n_);
  for (std::size_t k = n_; k < m_; ++k) a[k] = Complex{0.0, 0.0};
  conv_forward_.transform_pairs(flat(a.data()), a.data());
  cmul(a.data(), kernel_fft_.data(), a.data(), m_);
  conv_inverse_.transform_pairs(flat(a.data()), a.data());
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
    half_ = Radix2Schedule(half, false);
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

  if (half_.size() != 0) {
    // Packed-real: the N real samples are the N/2 complex values
    // (x[2i], x[2i+1]); the schedule gathers them straight from `input`,
    // then the untangle splits even and odd.
    const std::size_t half = n_ / 2;
    half_.transform_pairs(input.data(), scratch.data());
    simd::active_kernels().fft_untangle(scratch.data(), untangle_.data(),
                                        out_bins.data(), half);
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
