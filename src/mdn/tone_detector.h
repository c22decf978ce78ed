// Tone detection: the listening half of Music-Defined Networking.
//
// The MDN controller records short blocks of audio, computes a windowed
// FFT and matches spectral peaks against the frequency plan (§3, Fig 2a).
// Two interfaces are provided:
//   * detect() / detect_into() — open-set peak picking over a block;
//   * set_levels()  — closed-set Goertzel evaluation of known frequencies
//                     (cheaper when the watch list is small, e.g. §6).
// WatchMatcher maps each block's peaks onto the watched frequencies and
// reports onsets; it is the one matching step behind the inline
// MdnController (whose onsets feed the FSM, §4, and the telemetry
// counters, §5), the rt::StreamRuntime workers and the offline
// extract_tone_events(), which scans a whole recording.
//
// The detector follows the plan layer's "plan cold, execute hot" rule:
// the FFT plan and both analysis windows (full FFT-size and expected
// block-size) are built at construction, and detect_into() runs with
// zero heap allocations at steady state.  detect() and detect_into()
// are const and thread-safe: the detector's members are immutable after
// construction and all per-call scratch lives in thread-local storage,
// so one detector may serve many threads concurrently.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "audio/emission_tag.h"
#include "audio/waveform.h"
#include "common/annotations.h"
#include "dsp/fft_plan.h"
#include "dsp/goertzel.h"
#include "dsp/spectrum.h"
#include "dsp/window.h"
#include "obs/health.h"
#include "obs/trace.h"

namespace mdn::core {

struct DetectedTone {
  double frequency_hz = 0.0;
  double amplitude = 0.0;  ///< window-normalised linear amplitude
};

struct ToneDetectorConfig {
  double sample_rate = 48000.0;
  std::size_t fft_size = 4096;  ///< zero-pad target; blocks may be shorter
  /// Expected microphone block length in samples; blocks shorter than
  /// the FFT size are windowed at their own length and zero-padded.  The
  /// default is the paper's 50 ms capture at 48 kHz.  Set to 0 when the
  /// block length is unknown; detect() then synthesises the short-block
  /// window on first use per thread (one-time cost, still thread-safe).
  std::size_t block_size = 2400;
  /// Blackman by default: its -58 dB sidelobes keep one switch's loud
  /// tone from masquerading as another switch's frequency slot.
  dsp::WindowKind window = dsp::WindowKind::kBlackman;
  /// Minimum linear amplitude to call a peak a tone.  The default is
  /// ~34 dB SPL under the channel's 94 dB == 1.0 convention — just above
  /// the paper's ">= 30 dB" floor.
  double min_amplitude = 1e-3;
  /// Half-width of the frequency match window.  The paper's 20 Hz plan
  /// spacing implies a tolerance of at most 10 Hz.
  double match_tolerance_hz = 10.0;
};

class ToneDetector {
 public:
  explicit ToneDetector(const ToneDetectorConfig& config = {});

  const ToneDetectorConfig& config() const noexcept { return config_; }

  /// All tones present in `block` (open set).  `block` may be any length;
  /// it is zero-padded or truncated to the configured FFT size.
  std::vector<DetectedTone> detect(std::span<const double> block) const;

  /// Zero-allocation variant of detect(): clears and refills `out`,
  /// keeping its capacity, so a caller-reused vector stops allocating
  /// once warm.  Thread-safe with one `out` per thread.
  ///
  /// When `stats` is non-null it is refilled with per-block signal
  /// measurements for the health layer — block RMS, strongest peak, and
  /// the off-peak noise floor (mean spectrum amplitude outside every
  /// peak's +-neighbourhood) — a by-product of the spectrum this call
  /// already computed, so the extra cost is two linear passes and the
  /// path stays allocation-free.
  MDN_REALTIME void detect_into(std::span<const double> block,
                                std::vector<DetectedTone>& out,
                                obs::BlockSignalStats* stats = nullptr) const;

  /// Runs one silent detection without recording timings, so plan
  /// construction, SIMD dispatch and this thread's scratch growth
  /// (multi-millisecond first-call costs) happen here instead of inside
  /// the first timed block.  Call once per worker thread before entering
  /// the hot loop.
  void warm_up() const;

  /// Amplitude of each watched frequency in `block` (closed set,
  /// Goertzel).  Result is parallel to `watch_hz`.
  std::vector<double> set_levels(std::span<const double> block,
                                 std::span<const double> watch_hz) const;

  /// Closed-set levels through a prebuilt bank: writes bank.size()
  /// amplitudes into `out` with zero allocation.  Build the bank once
  /// with dsp::GoertzelBank(watch_hz, config().sample_rate).
  MDN_REALTIME void set_levels_into(std::span<const double> block,
                                    const dsp::GoertzelBank& bank,
                                    std::span<double> out) const;

  /// True when any detected tone lies within the match tolerance of
  /// `frequency_hz`.
  bool present(std::span<const double> block, double frequency_hz) const;

 private:
  // detect_into minus the timer (shared with warm_up).
  void detect_impl(std::span<const double> block,
                   std::vector<DetectedTone>& out,
                   obs::BlockSignalStats* stats) const;
  // Analysis window for an n-sample block, using the per-thread cache
  // for lengths the detector was not configured for.
  std::span<const double> window_for(std::size_t n,
                                     std::vector<double>& cache,
                                     dsp::WindowKind& cache_kind) const;
  // Peak picking + health stats over an already-computed spectrum —
  // the post-FFT half of detect_impl.
  void finish_block(std::span<const double> data,
                    std::span<const double> spectrum,
                    std::vector<dsp::SpectralPeak>& peaks,
                    std::vector<DetectedTone>& out,
                    obs::BlockSignalStats* stats) const;

  ToneDetectorConfig config_;
  // Shared immutable plan from the process-wide cache; execution scratch
  // is thread-local inside detect_into, so detect stays const-correct
  // with no mutable members (two threads sharing one detector no longer
  // race on a cached window).
  std::shared_ptr<const dsp::RealFftPlan> plan_;
  std::vector<double> window_;        // fft_size analysis window
  std::vector<double> block_window_;  // block_size window (may be empty)
  // Wall-time stages ("dsp/fft/wall_ns" is the Fig 2b CDF source).
  obs::Stage fft_;
  obs::Stage goertzel_;
};

/// A tone onset: `frequency_hz` rose above threshold at `time_s`.
struct ToneEvent {
  double time_s = 0.0;
  double frequency_hz = 0.0;
  double amplitude = 0.0;
  /// Journal id of the detection record (0 when the journal is
  /// disabled).  Apps pass this down so FSM transitions and flow mods
  /// can cite the tone that triggered them.
  std::uint64_t cause = 0;
};

/// Matches one block's detected tones against a watch list — the
/// per-block job of the inline controller, the rt workers and
/// extract_tone_events().  The list is fixed while matching, so worker
/// threads share one const matcher; each caller owns the per-mic
/// `active` flags (watch present in the previous block).
class WatchMatcher {
 public:
  WatchMatcher(std::vector<double> watch_hz, double tolerance_hz)
      : watch_hz_(std::move(watch_hz)), tolerance_hz_(tolerance_hz) {}

  /// Appends a watch; its index is the previous size().
  void add(double frequency_hz) { watch_hz_.push_back(frequency_hz); }
  std::size_t size() const noexcept { return watch_hz_.size(); }

  /// For each watch in index order: (1) it is present when a tone lies
  /// within the tolerance, at the loudest such tone's amplitude; (2) its
  /// cause is the first in-tolerance tag (0 when absent or untagged);
  /// (3) an onset is an absent -> present edge against `active[watch]`;
  /// (4) on an onset, `on_onset(watch, hz, amplitude, cause)` runs right
  /// here and returns the evidence id for the estimator; (5) a non-null
  /// `estimator` observes the watch, and `active[watch]` takes the new
  /// presence.  `active` holds size() flags.  Allocation-free: the
  /// callback is a template parameter, never a std::function.
  template <typename OnOnset>
  MDN_REALTIME void match(std::span<const DetectedTone> tones,
                          std::span<const audio::EmissionTag> tags,
                          std::span<char> active,
                          obs::MicSignalEstimator* estimator,
                          OnOnset&& on_onset) const {
    for (std::size_t w = 0; w < watch_hz_.size(); ++w) {
      const double hz = watch_hz_[w];
      bool present = false;
      double amplitude = 0.0;
      for (const DetectedTone& tone : tones) {
        if (std::abs(tone.frequency_hz - hz) <= tolerance_hz_) {
          present = true;
          amplitude = std::max(amplitude, tone.amplitude);
        }
      }
      obs::CauseId evidence = 0;
      if (present) {
        for (const audio::EmissionTag& tag : tags) {
          if (std::abs(tag.frequency_hz - hz) <= tolerance_hz_) {
            evidence = tag.cause;
            break;
          }
        }
      }
      const bool onset = present && active[w] == 0;
      if (onset) evidence = on_onset(w, hz, amplitude, evidence);
      if (estimator != nullptr) {
        estimator->observe_watch(w, present, onset, amplitude, evidence);
      }
      active[w] = present ? 1 : 0;
    }
  }

 private:
  std::vector<double> watch_hz_;
  double tolerance_hz_;
};

/// Offline path: scans `recording` in hops of `hop_s`, reporting an
/// event each time a watched frequency transitions from absent to
/// present (onset semantics: a tone spanning several blocks yields one
/// event).
std::vector<ToneEvent> extract_tone_events(
    const audio::Waveform& recording, const ToneDetector& detector,
    std::span<const double> watch_hz, double hop_s);

}  // namespace mdn::core
