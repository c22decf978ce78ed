#include "mdn/tone_detector.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "dsp/simd.h"

namespace mdn::core {
namespace {

// Per-thread scratch for the zero-allocation detect path.  Keeping it
// thread-local (instead of as a mutable member) is what makes a shared
// const ToneDetector race-free: every thread windows, transforms and
// peak-picks in its own buffers.  Buffers only grow, so a thread in
// steady state with one detector never reallocates.
struct DetectScratch {
  dsp::SpectrumWorkspace ws;
  std::vector<double> spectrum;
  std::vector<dsp::SpectralPeak> peaks;
  // Fallback window for block lengths the detector was not configured
  // for (cold path; cached per thread so repeats stay allocation-free).
  std::vector<double> window;
  dsp::WindowKind window_kind = dsp::WindowKind::kRectangular;
};

DetectScratch& detect_scratch() {
  thread_local DetectScratch scratch;
  return scratch;
}

}  // namespace

ToneDetector::ToneDetector(const ToneDetectorConfig& config)
    : config_(config),
      plan_(dsp::PlanCache::global().real_plan(config.fft_size)),
      window_(dsp::make_window(config.window, config.fft_size)),
      fft_(&obs::Registry::global().histogram("dsp/fft/wall_ns")),
      goertzel_(&obs::Registry::global().histogram("dsp/goertzel/wall_ns")) {
  if (config.sample_rate <= 0.0 || config.fft_size == 0) {
    throw std::invalid_argument("ToneDetector: invalid configuration");
  }
  // Blocks longer than the FFT size are truncated at detect time and use
  // the full-size window, so only a genuinely shorter block needs its
  // own precomputed window.
  if (config.block_size > 0 && config.block_size < config.fft_size) {
    block_window_ = dsp::make_window(config.window, config.block_size);
  }
  // First registry consumer with kernel access: publish which SIMD path
  // (avx2/scalar) will produce every number this detector reports.
  dsp::simd::export_dispatch_metrics();
}

std::vector<DetectedTone> ToneDetector::detect(
    std::span<const double> block) const {
  std::vector<DetectedTone> tones;
  detect_into(block, tones);
  return tones;
}

void ToneDetector::detect_into(std::span<const double> block,
                               std::vector<DetectedTone>& out,
                               obs::BlockSignalStats* stats) const {
  // The paper's Fig 2b "FFT processing time" covers this whole path:
  // window + zero-padded FFT + peak picking over one microphone block.
  const auto timed = fft_.realtime_scope();
  detect_impl(block, out, stats);
}

std::span<const double> ToneDetector::window_for(
    std::size_t n, std::vector<double>& cache,
    dsp::WindowKind& cache_kind) const {
  if (n == config_.fft_size) return window_;
  if (n == block_window_.size()) return block_window_;
  if (cache.size() != n || cache_kind != config_.window) {
    cache = dsp::make_window(config_.window, n);
    cache_kind = config_.window;
  }
  return cache;
}

void ToneDetector::finish_block(std::span<const double> data,
                                std::span<const double> spectrum,
                                std::vector<dsp::SpectralPeak>& peaks,
                                std::vector<DetectedTone>& out,
                                obs::BlockSignalStats* stats) const {
  // Padding interpolates the spectrum, so one spectral lobe spans
  // ~pad_factor more bins; widen the peak neighbourhood accordingly.
  const std::size_t n = data.size();
  const std::size_t pad_factor = config_.fft_size / n;
  const std::size_t neighborhood = std::max<std::size_t>(2, 2 * pad_factor);
  dsp::find_peaks_into(spectrum, config_.sample_rate, config_.fft_size,
                       config_.min_amplitude, neighborhood, peaks);
  for (const auto& p : peaks) {
    out.push_back({p.frequency_hz, p.amplitude});
  }

  if (stats != nullptr) {
    double energy = 0.0;
    for (const double s : data) energy += s * s;
    stats->rms = std::sqrt(energy / static_cast<double>(n));

    const std::size_t bins = spectrum.size();
    double total = 0.0;
    for (std::size_t b = 0; b < bins; ++b) total += spectrum[b];
    // Excise every peak's +-neighbourhood from the mean; peaks arrive in
    // ascending bin order, so a high-water mark keeps overlapping
    // neighbourhoods from being subtracted twice.
    double excluded_sum = 0.0;
    std::size_t excluded = 0;
    std::size_t next_free = 0;
    double peak_amp = 0.0;
    for (const auto& p : peaks) {
      if (p.amplitude > peak_amp) peak_amp = p.amplitude;
      std::size_t lo = p.bin > neighborhood ? p.bin - neighborhood : 0;
      if (lo < next_free) lo = next_free;
      const std::size_t hi = std::min(p.bin + neighborhood + 1, bins);
      for (std::size_t b = lo; b < hi; ++b) {
        excluded_sum += spectrum[b];
      }
      if (hi > lo) excluded += hi - lo;
      if (hi > next_free) next_free = hi;
    }
    stats->peak_amplitude = peak_amp;
    if (bins > excluded) {
      stats->noise_floor =
          (total - excluded_sum) / static_cast<double>(bins - excluded);
    } else if (bins > 0) {
      stats->noise_floor = total / static_cast<double>(bins);
    }
  }
}

void ToneDetector::detect_impl(std::span<const double> block,
                               std::vector<DetectedTone>& out,
                               obs::BlockSignalStats* stats) const {
  out.clear();
  if (stats != nullptr) *stats = {};
  // Window the data (not the pad) and zero-pad up to the FFT size, so a
  // 50 ms block keeps its full spectral resolution and the pad only
  // interpolates between bins.
  const std::size_t n = std::min(block.size(), config_.fft_size);
  if (n == 0) return;
  const auto data = block.first(n);

  DetectScratch& scratch = detect_scratch();
  const std::span<const double> window =
      window_for(n, scratch.window, scratch.window_kind);

  if (scratch.spectrum.size() < plan_->bins()) {
    scratch.spectrum.resize(plan_->bins());
  }
  dsp::amplitude_spectrum_into(data, window, *plan_, scratch.ws,
                               scratch.spectrum);
  finish_block(data,
               std::span<const double>(scratch.spectrum.data(), plan_->bins()),
               scratch.peaks, out, stats);
}

void ToneDetector::warm_up() const {
  // Cold path by design: run one silent detection so plan tables, the
  // SIMD dispatch table and this thread's grow-once scratch all
  // materialise here — the multi-millisecond first-execute costs never
  // land in the steady-state histograms (nothing is recorded on this
  // path).
  const std::size_t len =
      config_.block_size > 0 ? config_.block_size : config_.fft_size;
  std::vector<double> silence(len, 0.0);
  std::vector<DetectedTone> tones;
  obs::BlockSignalStats block_stats;
  detect_impl(silence, tones, &block_stats);
  dsp::simd::export_dispatch_metrics();
}

std::vector<double> ToneDetector::set_levels(
    std::span<const double> block, std::span<const double> watch_hz) const {
  // Per-thread bank cache: rebuilding precomputed coefficients only when
  // the watch list actually changes keeps the common fixed-watch-list
  // case allocation-free after the first block.
  thread_local std::optional<dsp::GoertzelBank> bank;
  if (!bank.has_value() || bank->sample_rate() != config_.sample_rate ||
      !std::ranges::equal(bank->frequencies_hz(), watch_hz)) {
    bank.emplace(watch_hz, config_.sample_rate);
  }
  std::vector<double> levels(watch_hz.size());
  set_levels_into(block, *bank, levels);
  return levels;
}

void ToneDetector::set_levels_into(std::span<const double> block,
                                   const dsp::GoertzelBank& bank,
                                   std::span<double> out) const {
  const auto timed = goertzel_.realtime_scope();
  bank.block_amplitudes(block, out);
}

bool ToneDetector::present(std::span<const double> block,
                           double frequency_hz) const {
  const auto tones = detect(block);
  return std::any_of(tones.begin(), tones.end(), [&](const DetectedTone& t) {
    return std::abs(t.frequency_hz - frequency_hz) <=
           config_.match_tolerance_hz;
  });
}

std::vector<ToneEvent> extract_tone_events(
    const audio::Waveform& recording, const ToneDetector& detector,
    std::span<const double> watch_hz, double hop_s) {
  if (hop_s <= 0.0) {
    throw std::invalid_argument("extract_tone_events: hop must be positive");
  }
  std::vector<ToneEvent> events;
  const auto hop = static_cast<std::size_t>(
      std::llround(hop_s * recording.sample_rate()));
  if (hop == 0 || recording.empty()) return events;

  const WatchMatcher matcher({watch_hz.begin(), watch_hz.end()},
                             detector.config().match_tolerance_hz);
  std::vector<char> active(watch_hz.size(), 0);
  std::vector<DetectedTone> tones;
  for (std::size_t start = 0; start < recording.size(); start += hop) {
    const std::size_t len = std::min(hop, recording.size() - start);
    const auto block = recording.samples().subspan(start, len);
    detector.detect_into(block, tones);
    const double t = static_cast<double>(start) / recording.sample_rate();
    matcher.match(tones, {}, active, nullptr,
                  [&](std::size_t, double hz, double amplitude,
                      obs::CauseId) -> obs::CauseId {
                    events.push_back({t, hz, amplitude});
                    return 0;
                  });
  }
  return events;
}

}  // namespace mdn::core
