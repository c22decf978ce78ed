#include "mdn/fan_failure.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"

namespace mdn::core {

FanFailureDetector::FanFailureDetector(double sample_rate,
                                       const FanDetectorConfig& config)
    : sample_rate_(sample_rate),
      config_(config),
      plan_(dsp::PlanCache::global().real_plan(config.fft_size)),
      window_(config.window, config.fft_size) {
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("FanFailureDetector: sample rate");
  }
  if (config.band_hi_hz <= config.band_lo_hz) {
    throw std::invalid_argument("FanFailureDetector: band");
  }
  band_lo_bin_ =
      dsp::frequency_bin(config_.band_lo_hz, config_.fft_size, sample_rate_);
  band_hi_bin_ =
      dsp::frequency_bin(config_.band_hi_hz, config_.fft_size, sample_rate_);
}

void FanFailureDetector::band_spectrum_into(std::span<const double> segment,
                                            BandScratch& scratch,
                                            std::vector<double>& band) const {
  // Zero-pad into an FFT-sized chunk and apply the full-size window, so
  // short segments are normalised by the same coherent gain as full
  // ones.
  scratch.chunk.assign(config_.fft_size, 0.0);
  const std::size_t n = std::min(segment.size(), config_.fft_size);
  std::copy_n(segment.begin(), n, scratch.chunk.begin());
  if (scratch.spectrum.size() < plan_->bins()) {
    scratch.spectrum.resize(plan_->bins());
  }
  dsp::amplitude_spectrum_into(scratch.chunk, window_.coeffs, window_.gain,
                               *plan_, scratch.ws, scratch.spectrum);

  band.clear();
  for (std::size_t k = band_lo_bin_;
       k <= band_hi_bin_ && k < plan_->bins(); ++k) {
    band.push_back(scratch.spectrum[k]);
  }
}

void FanFailureDetector::calibrate(const audio::Waveform& baseline) {
  const std::size_t seg = config_.fft_size;
  const std::size_t count = baseline.size() / seg;
  if (count < 4) {
    throw std::invalid_argument(
        "FanFailureDetector::calibrate: need >= 4 FFT-size segments");
  }

  // Pass 1: mean spectrum (one scratch set batched across segments).
  BandScratch scratch;
  std::vector<std::vector<double>> spectra;
  spectra.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> band;
    band_spectrum_into(baseline.samples().subspan(i * seg, seg), scratch,
                       band);
    spectra.push_back(std::move(band));
  }
  reference_.assign(spectra.front().size(), 0.0);
  for (const auto& s : spectra) {
    for (std::size_t k = 0; k < reference_.size(); ++k) {
      reference_[k] += s[k];
    }
  }
  for (auto& v : reference_) v /= static_cast<double>(count);

  // Pass 2: spread of segment-vs-reference differences.
  double sum = 0.0, sum2 = 0.0;
  for (const auto& s : spectra) {
    const double d = dsp::spectral_difference(s, reference_);
    sum += d;
    sum2 += d * d;
  }
  mean_diff_ = sum / static_cast<double>(count);
  const double var =
      sum2 / static_cast<double>(count) - mean_diff_ * mean_diff_;
  std_diff_ = std::sqrt(std::max(0.0, var));
  calibrated_ = true;
}

double FanFailureDetector::difference(const audio::Waveform& sample) const {
  if (!calibrated_) {
    throw std::logic_error("FanFailureDetector: not calibrated");
  }
  BandScratch scratch;
  std::vector<double> band;
  band_spectrum_into(sample.samples(), scratch, band);
  return dsp::spectral_difference(band, reference_);
}

std::vector<double> FanFailureDetector::difference_series(
    const audio::Waveform& recording) const {
  std::vector<double> out;
  const std::size_t seg = config_.fft_size;
  BandScratch scratch;
  std::vector<double> band;
  for (std::size_t start = 0; start + seg <= recording.size();
       start += seg) {
    band_spectrum_into(recording.samples().subspan(start, seg), scratch,
                       band);
    out.push_back(dsp::spectral_difference(band, reference_));
  }
  return out;
}

double FanFailureDetector::threshold() const {
  if (!calibrated_) {
    throw std::logic_error("FanFailureDetector: not calibrated");
  }
  return mean_diff_ + config_.sigma_factor * std_diff_;
}

bool FanFailureDetector::is_failed(const audio::Waveform& sample) const {
  return difference(sample) > threshold();
}

double FanFailureDetector::baseline_mean() const {
  if (!calibrated_) {
    throw std::logic_error("FanFailureDetector: not calibrated");
  }
  return mean_diff_;
}

double FanFailureDetector::baseline_std() const {
  if (!calibrated_) {
    throw std::logic_error("FanFailureDetector: not calibrated");
  }
  return std_diff_;
}

}  // namespace mdn::core
