#include "dsp/spectrogram.h"

#include <algorithm>
#include <stdexcept>

#include "dsp/spectrum.h"

namespace mdn::dsp {

Spectrogram::Spectrogram(std::size_t frames, std::size_t bins,
                         double sample_rate, std::size_t fft_size,
                         std::size_t hop)
    : frames_(frames),
      bins_(bins),
      sample_rate_(sample_rate),
      fft_size_(fft_size),
      hop_(hop),
      data_(frames * bins, 0.0) {}

double& Spectrogram::at(std::size_t frame, std::size_t bin) {
  if (frame >= frames_ || bin >= bins_) {
    throw std::out_of_range("Spectrogram::at");
  }
  return data_[frame * bins_ + bin];
}

double Spectrogram::at(std::size_t frame, std::size_t bin) const {
  if (frame >= frames_ || bin >= bins_) {
    throw std::out_of_range("Spectrogram::at");
  }
  return data_[frame * bins_ + bin];
}

std::span<const double> Spectrogram::frame(std::size_t index) const {
  if (index >= frames_) throw std::out_of_range("Spectrogram::frame");
  return {data_.data() + index * bins_, bins_};
}

std::span<double> Spectrogram::frame(std::size_t index) {
  if (index >= frames_) throw std::out_of_range("Spectrogram::frame");
  return {data_.data() + index * bins_, bins_};
}

double Spectrogram::frame_time(std::size_t index) const noexcept {
  const double centre = static_cast<double>(index * hop_) +
                        static_cast<double>(fft_size_) / 2.0;
  return sample_rate_ > 0.0 ? centre / sample_rate_ : 0.0;
}

double Spectrogram::bin_frequency(std::size_t index) const noexcept {
  if (fft_size_ == 0) return 0.0;
  return static_cast<double>(index) * sample_rate_ /
         static_cast<double>(fft_size_);
}

std::size_t Spectrogram::argmax_bin(std::size_t frame_index) const {
  const auto row = frame(frame_index);
  return static_cast<std::size_t>(
      std::distance(row.begin(), std::max_element(row.begin(), row.end())));
}

Spectrogram stft(std::span<const double> signal, double sample_rate,
                 const StftConfig& config) {
  if (config.fft_size == 0 || config.hop == 0) {
    throw std::invalid_argument("stft: fft_size and hop must be positive");
  }
  const std::size_t bins = config.fft_size / 2 + 1;
  // Every sample belongs to some frame: (N-1)/hop + 1 frames, the final
  // (or only) one zero-padded.  A non-empty signal shorter than a hop
  // still yields its one padded frame.
  const std::size_t frames =
      signal.empty() ? 0 : (signal.size() - 1) / config.hop + 1;
  Spectrogram out(frames, bins, sample_rate, config.fft_size, config.hop);
  if (frames == 0) return out;

  // Batched loop: one plan and one workspace serve every frame, so the
  // per-frame cost is copy + window + execute with no allocation.
  const auto plan = PlanCache::global().real_plan(config.fft_size);
  SpectrumWorkspace ws(*plan);
  const AnalysisWindow window(config.window, config.fft_size);
  std::vector<double> chunk(config.fft_size);
  for (std::size_t f = 0; f < frames; ++f) {
    const std::size_t start = f * config.hop;
    const std::size_t avail =
        start < signal.size()
            ? std::min(config.fft_size, signal.size() - start)
            : 0;
    std::copy_n(signal.begin() + static_cast<std::ptrdiff_t>(start), avail,
                chunk.begin());
    std::fill(chunk.begin() + static_cast<std::ptrdiff_t>(avail), chunk.end(),
              0.0);
    amplitude_spectrum_into(chunk, window.coeffs, window.gain, *plan, ws,
                            out.frame(f));
  }
  return out;
}

}  // namespace mdn::dsp
