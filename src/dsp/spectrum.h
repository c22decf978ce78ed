// Spectrum utilities: amplitude normalisation, decibel conversion and
// spectral peak picking, the primitive behind tone identification (Fig 2a).
//
// Two interfaces per operation: a convenient allocating form, and a
// "plan cold, execute hot" form (`*_into`) that takes a RealFftPlan plus
// a reusable SpectrumWorkspace and writes into caller-provided storage —
// zero heap allocations at steady state.  The tone detector, STFT and
// fan detectors all run on the second form.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft_plan.h"

namespace mdn::dsp {

/// One detected spectral peak.
struct SpectralPeak {
  std::size_t bin = 0;        ///< FFT bin index.
  double frequency_hz = 0.0;  ///< Interpolated frequency in Hz.
  double amplitude = 0.0;     ///< Window-normalised linear amplitude.
};

/// Converts a linear amplitude to decibels relative to `reference`.
/// Amplitudes at or below zero clamp to `floor_db`.
double amplitude_to_db(double amplitude, double reference = 1.0,
                       double floor_db = -120.0) noexcept;

/// Converts decibels back to a linear amplitude.
double db_to_amplitude(double db, double reference = 1.0) noexcept;

/// Single-sided amplitude spectrum of a real signal: applies `window`,
/// computes the FFT and normalises so a full-scale sine at a bin centre
/// reports its true amplitude.  Returns n/2+1 values.
std::vector<double> amplitude_spectrum(std::span<const double> signal,
                                       std::span<const double> window);

/// Like amplitude_spectrum, but zero-pads the windowed signal to
/// `fft_size` before transforming.  The window is applied to the *data*
/// (signal.size() == window.size()); padding only interpolates the
/// spectrum.  This is how the tone detector analyses 50 ms microphone
/// blocks without sacrificing resolution to the pad.
std::vector<double> amplitude_spectrum_padded(std::span<const double> signal,
                                              std::span<const double> window,
                                              std::size_t fft_size);

/// Reusable buffers for the zero-allocation spectrum path.  Construct
/// (or resize_for) once per plan, then hand to amplitude_spectrum_into
/// on every block.
struct SpectrumWorkspace {
  SpectrumWorkspace() = default;
  explicit SpectrumWorkspace(const RealFftPlan& plan) { resize_for(plan); }

  /// Grows the buffers to fit `plan`.  No-op when already sized.
  void resize_for(const RealFftPlan& plan);

  std::vector<double> padded;    ///< windowed + zero-padded time samples
  std::vector<Complex> bins;     ///< half-spectrum output of the plan
  std::vector<Complex> scratch;  ///< plan execution scratch
};

/// Zero-allocation amplitude spectrum: windows `signal` (signal.size()
/// == window.size() <= plan.size()), zero-pads to plan.size(), executes
/// `plan` through `ws` and writes plan.bins() window-normalised
/// amplitudes into `out`.  `window_gain` is window_coherent_gain(window),
/// summed once where the window is built rather than on every block.
/// Covers both the unpadded (signal.size() == plan.size()) and padded
/// cases of the allocating functions above.
void amplitude_spectrum_into(std::span<const double> signal,
                             std::span<const double> window,
                             double window_gain, const RealFftPlan& plan,
                             SpectrumWorkspace& ws, std::span<double> out);

/// Finds local maxima in a single-sided spectrum that exceed
/// `min_amplitude` and are the largest value within +-`neighborhood` bins.
/// Peak frequencies are refined by parabolic interpolation of log
/// amplitude, which recovers tone frequencies to well under one bin.
std::vector<SpectralPeak> find_peaks(std::span<const double> spectrum,
                                     double sample_rate, std::size_t fft_size,
                                     double min_amplitude,
                                     std::size_t neighborhood = 2);

/// Zero-allocation variant: clears `out` (keeping its capacity) and
/// refills it, so a reused vector stops allocating once warm.
void find_peaks_into(std::span<const double> spectrum, double sample_rate,
                     std::size_t fft_size, double min_amplitude,
                     std::size_t neighborhood,
                     std::vector<SpectralPeak>& out);

/// Total spectral amplitude difference Sum_k |a[k] - b[k]| between two
/// equal-length spectra — the fan-failure statistic of §7 (Fig 7).
double spectral_difference(std::span<const double> a,
                           std::span<const double> b);

}  // namespace mdn::dsp
