#include "dsp/spectrum.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "dsp/simd.h"
#include "dsp/window.h"

namespace mdn::dsp {

double amplitude_to_db(double amplitude, double reference,
                       double floor_db) noexcept {
  if (amplitude <= 0.0 || reference <= 0.0) return floor_db;
  return std::max(floor_db, 20.0 * std::log10(amplitude / reference));
}

double db_to_amplitude(double db, double reference) noexcept {
  return reference * std::pow(10.0, db / 20.0);
}

void SpectrumWorkspace::resize_for(const RealFftPlan& plan) {
  if (padded.size() < plan.size()) padded.resize(plan.size());
  if (bins.size() < plan.bins()) bins.resize(plan.bins());
  if (scratch.size() < plan.scratch_size()) {
    scratch.resize(plan.scratch_size());
  }
}

void amplitude_spectrum_into(std::span<const double> signal,
                             std::span<const double> window,
                             const RealFftPlan& plan, SpectrumWorkspace& ws,
                             std::span<double> out) {
  if (signal.size() != window.size()) {
    throw std::invalid_argument(
        "amplitude_spectrum_into: window size mismatch");
  }
  if (signal.size() > plan.size()) {
    throw std::invalid_argument(
        "amplitude_spectrum_into: plan smaller than signal");
  }
  if (out.size() < plan.bins()) {
    throw std::invalid_argument("amplitude_spectrum_into: out too small");
  }
  const std::size_t fft_size = plan.size();
  if (fft_size == 0) return;
  ws.resize_for(plan);

  // Window the data (not the pad); padding only interpolates the
  // spectrum.
  const simd::Kernels& kern = simd::active_kernels();
  kern.mul(signal.data(), window.data(), ws.padded.data(), signal.size());
  std::fill(ws.padded.begin() + static_cast<std::ptrdiff_t>(signal.size()),
            ws.padded.begin() + static_cast<std::ptrdiff_t>(fft_size), 0.0);
  plan.execute(std::span<const double>(ws.padded.data(), fft_size), ws.bins,
               ws.scratch);

  // A sine of amplitude A contributes A * gain / 2 to its bin (the other
  // half lands in the conjugate bin), where gain is the coherent window
  // gain; scale so the reported value is A.
  const double gain = window_coherent_gain(window);
  const double scale = gain > 0.0 ? 2.0 / gain : 0.0;
  const std::size_t bins = plan.bins();
  kern.mag_scale_aos(ws.bins.data(), scale, out.data(), bins);
  // DC and Nyquist have no conjugate partner.
  out[0] /= 2.0;
  if (fft_size % 2 == 0) out[bins - 1] /= 2.0;
}

std::vector<double> amplitude_spectrum(std::span<const double> signal,
                                       std::span<const double> window) {
  if (signal.size() != window.size()) {
    throw std::invalid_argument("amplitude_spectrum: window size mismatch");
  }
  const std::size_t n = signal.size();
  if (n == 0) return {};

  const auto plan = PlanCache::global().real_plan(n);
  SpectrumWorkspace ws(*plan);
  std::vector<double> out(plan->bins());
  amplitude_spectrum_into(signal, window, *plan, ws, out);
  return out;
}

std::vector<double> amplitude_spectrum_padded(std::span<const double> signal,
                                              std::span<const double> window,
                                              std::size_t fft_size) {
  if (signal.size() != window.size()) {
    throw std::invalid_argument(
        "amplitude_spectrum_padded: window size mismatch");
  }
  if (fft_size < signal.size()) {
    throw std::invalid_argument(
        "amplitude_spectrum_padded: fft_size smaller than signal");
  }
  if (fft_size == 0) return {};
  const auto plan = PlanCache::global().real_plan(fft_size);
  SpectrumWorkspace ws(*plan);
  std::vector<double> out(plan->bins());
  amplitude_spectrum_into(signal, window, *plan, ws, out);
  return out;
}

std::vector<SpectralPeak> find_peaks(std::span<const double> spectrum,
                                     double sample_rate, std::size_t fft_size,
                                     double min_amplitude,
                                     std::size_t neighborhood) {
  std::vector<SpectralPeak> peaks;
  find_peaks_into(spectrum, sample_rate, fft_size, min_amplitude,
                  neighborhood, peaks);
  return peaks;
}

void find_peaks_into(std::span<const double> spectrum, double sample_rate,
                     std::size_t fft_size, double min_amplitude,
                     std::size_t neighborhood,
                     std::vector<SpectralPeak>& peaks) {
  peaks.clear();
  const std::size_t n = spectrum.size();
  if (n < 3 || fft_size == 0) return;
  const std::size_t radius = std::max<std::size_t>(1, neighborhood);

  // Chunked prescan: a vector max over each run of bins skips whole
  // below-threshold chunks without touching the per-bin logic.  The
  // bins a skipped chunk drops are exactly those the `a <
  // min_amplitude` test would drop, so output is unchanged.
  const simd::Kernels& kern = simd::active_kernels();
  constexpr std::size_t kChunk = 64;
  for (std::size_t c = 1; c + 1 < n; c += kChunk) {
    const std::size_t chunk_end = std::min(c + kChunk, n - 1);
    if (kern.chunk_max(spectrum.data() + c, chunk_end - c) < min_amplitude) {
      continue;
    }
    for (std::size_t k = c; k < chunk_end; ++k) {
      const double a = spectrum[k];
      if (a < min_amplitude) continue;

      bool is_max = true;
      const std::size_t lo = k > radius ? k - radius : 0;
      const std::size_t hi = std::min(n - 1, k + radius);
      for (std::size_t j = lo; j <= hi && is_max; ++j) {
        if (j != k && spectrum[j] > a) is_max = false;
      }
      if (!is_max) continue;

      // Parabolic interpolation on log amplitude for sub-bin frequency.
      double delta = 0.0;
      const double eps = 1e-30;
      const double l0 = std::log(spectrum[k - 1] + eps);
      const double l1 = std::log(a + eps);
      const double l2 = std::log(spectrum[k + 1] + eps);
      const double denom = l0 - 2.0 * l1 + l2;
      if (std::abs(denom) > 1e-12) {
        delta = 0.5 * (l0 - l2) / denom;
        delta = std::clamp(delta, -0.5, 0.5);
      }

      SpectralPeak p;
      p.bin = k;
      p.frequency_hz = (static_cast<double>(k) + delta) * sample_rate /
                       static_cast<double>(fft_size);
      p.amplitude = a;
      peaks.push_back(p);
    }
  }
}

double spectral_difference(std::span<const double> a,
                           std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("spectral_difference: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum;
}

}  // namespace mdn::dsp
