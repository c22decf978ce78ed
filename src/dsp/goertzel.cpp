#include "dsp/goertzel.h"

#include <cmath>
#include <numbers>
#include <vector>

namespace mdn::dsp {

Goertzel::Goertzel(double frequency_hz, double sample_rate) noexcept
    : frequency_hz_(frequency_hz) {
  const double w = 2.0 * std::numbers::pi * frequency_hz / sample_rate;
  coeff_ = 2.0 * std::cos(w);
  sin_w_ = std::sin(w);
  cos_w_ = std::cos(w);
}

void Goertzel::push(double sample) noexcept {
  const double s0 = sample + coeff_ * s1_ - s2_;
  s2_ = s1_;
  s1_ = s0;
  ++count_;
}

void Goertzel::reset() noexcept {
  s1_ = 0.0;
  s2_ = 0.0;
  count_ = 0;
}

double Goertzel::block_power() const noexcept {
  const double real = s1_ - s2_ * cos_w_;
  const double imag = s2_ * sin_w_;
  return real * real + imag * imag;
}

double goertzel_power(std::span<const double> signal, double frequency_hz,
                      double sample_rate) noexcept {
  Goertzel g(frequency_hz, sample_rate);
  for (double s : signal) g.push(s);
  return g.block_power();
}

GoertzelBank::GoertzelBank(std::span<const double> frequencies_hz,
                           double sample_rate)
    : frequencies_(frequencies_hz.begin(), frequencies_hz.end()),
      sample_rate_(sample_rate) {
  coeff_.reserve(frequencies_.size());
  cos_w_.reserve(frequencies_.size());
  sin_w_.reserve(frequencies_.size());
  for (double f : frequencies_) {
    const double w = 2.0 * std::numbers::pi * f / sample_rate;
    coeff_.push_back(2.0 * std::cos(w));
    cos_w_.push_back(std::cos(w));
    sin_w_.push_back(std::sin(w));
  }
}

void GoertzelBank::block_powers(std::span<const double> block,
                                std::span<double> out) const {
  // Filter-major: each filter streams the block with its two states in
  // registers — the same recurrence and finish as goertzel_power().
  for (std::size_t f = 0; f < coeff_.size(); ++f) {
    const double c = coeff_[f];
    double s1 = 0.0, s2 = 0.0;
    for (const double x : block) {
      const double s0 = x + c * s1 - s2;
      s2 = s1;
      s1 = s0;
    }
    const double real = s1 - s2 * cos_w_[f];
    const double imag = s2 * sin_w_[f];
    out[f] = real * real + imag * imag;
  }
}

void GoertzelBank::block_amplitudes(std::span<const double> block,
                                    std::span<double> out) const {
  block_powers(block, out);
  const double n = static_cast<double>(block.size());
  const double scale = n > 0.0 ? 2.0 / n : 0.0;
  for (std::size_t i = 0; i < coeff_.size(); ++i) {
    out[i] = scale * std::sqrt(out[i]);
  }
}

}  // namespace mdn::dsp
