// Analysis window functions.
//
// Short tone captures are windowed before the FFT to contain spectral
// leakage; with the paper's 20 Hz frequency plan spacing (§3), leakage from
// a neighbouring switch's tone would otherwise smear into adjacent bins and
// defeat peak matching.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace mdn::dsp {

enum class WindowKind {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
};

/// Human-readable name ("hann", "blackman", ...).
std::string_view window_name(WindowKind kind) noexcept;

/// The window coefficients, length n (periodic form, suitable for STFT).
std::vector<double> make_window(WindowKind kind, std::size_t n);

/// Element-wise multiply `signal` by `window`.  Sizes must match.
void apply_window(std::span<double> signal, std::span<const double> window);

/// Sum of window coefficients — used to normalise spectral amplitude so a
/// unit-amplitude sine reports ~1.0 regardless of window choice.
double window_coherent_gain(std::span<const double> window) noexcept;

/// A window and its coherent gain, summed once when the window is built
/// so a per-block spectrum need not re-sum it.
struct AnalysisWindow {
  AnalysisWindow() = default;
  AnalysisWindow(WindowKind kind, std::size_t n)
      : coeffs(make_window(kind, n)), gain(window_coherent_gain(coeffs)) {}

  std::vector<double> coeffs;
  double gain = 0.0;
};

}  // namespace mdn::dsp
