// The Music-Defined Networking controller (the "listening application").
//
// Fig 1: an application listens for sounds, interprets the sequence and
// launches the appropriate action — sending an OpenFlow Flow-MOD, opening
// a knocked port, raising an alert.  This class is that application: it
// owns a microphone on the acoustic channel, wakes up every `hop_s`
// seconds of simulated time, records the last hop, runs the tone detector
// and dispatches onset events to registered handlers.
//
// Each tick is capture() then publish().  capture() records the block,
// collects its emission tags and detects; it touches only this
// controller's microphone and scratch, its const detector and its const
// channel, so controllers may capture side by side (core::Fleet's rooms
// do, inside one hop).  publish() does everything else, in order, on the
// thread that owns the event loop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "audio/channel.h"
#include "mdn/tone_detector.h"
#include "net/event_loop.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdn::core {

class MdnController {
 public:
  struct Config {
    /// Listening block length.  §3 reports ~50 ms samples with 90% of
    /// FFTs finishing in 0.35 ms.
    double hop_s = 0.05;
    ToneDetectorConfig detector;
    audio::MicrophoneSpec microphone;
    /// Keep the raw microphone signal for later spectrogram rendering.
    bool keep_recording = false;
    /// This microphone's id: the `mic` of its journal records and the
    /// index of its health estimator.
    std::uint32_t mic = 0;
    /// Optional health engine (non-owning).  The controller feeds
    /// health->estimator(mic) per tick and runs the alert engine at
    /// tick end.
    obs::Health* health = nullptr;
  };

  using Handler = std::function<void(const ToneEvent&)>;

  MdnController(net::EventLoop& loop, audio::AcousticChannel& channel,
                const Config& config);

  /// Registers a handler for onsets of `frequency_hz` (within the
  /// detector's match tolerance).
  void watch(double frequency_hz, Handler handler);

  /// Registers one handler for every frequency in `watch_hz`.
  void watch_all(std::span<const double> watch_hz, Handler handler);

  /// Low-level tap: receives every recorded block (block start time in
  /// seconds plus the raw samples) before onset matching.  Applications
  /// with their own demodulators — e.g. the melody codec's FSK receiver
  /// — build on this instead of watch().
  using BlockObserver =
      std::function<void(double start_s, std::span<const double> samples)>;
  void observe_blocks(BlockObserver observer);

  /// Who clocks the hops of a running controller.
  enum class Clock {
    kOwn,       ///< start() schedules the controller's periodic tick
    kExternal,  ///< the caller's hop calls capture() then publish()
  };

  /// Begins listening at the configured hop.  Listening stops when
  /// stop() is called or the event loop drains; with Clock::kOwn, a
  /// start() before the stopped series fires again resumes that series
  /// on its phase.  Throws std::logic_error when the health engine has
  /// no estimator for the configured mic.
  void start(Clock clock = Clock::kOwn);
  void stop() noexcept { running_ = false; }
  bool running() const noexcept { return running_; }

  /// The first half of a tick: records the hop ending at `sim_now` off
  /// the channel, collects the tags of the emissions it overlaps (journal
  /// on) and detects its tones.  It writes only this
  /// controller's microphone and scratch and reads its channel and
  /// detector, so other controllers may capture() concurrently while
  /// nothing else runs.  Its spans wait for publish(), which must follow
  /// on the event loop's thread.
  void capture(net::SimTime sim_now);
  /// The second half: counts the block, runs the block observers,
  /// journals its ingest, matches and dispatches its onsets, and feeds
  /// the health engine.
  void publish();

  const ToneDetector& detector() const noexcept { return detector_; }
  const Config& config() const noexcept { return config_; }
  net::EventLoop& loop() noexcept { return loop_; }

  /// Every onset heard since start(), regardless of handlers.
  const std::vector<ToneEvent>& event_log() const noexcept { return log_; }

  /// Full microphone recording (only if keep_recording was set).
  const audio::Waveform& recording() const noexcept { return recording_; }

  std::uint64_t blocks_processed() const noexcept { return blocks_; }

 private:
  bool tick();  // capture(now) then publish(); false ends the series

  net::EventLoop& loop_;
  audio::AcousticChannel& channel_;
  Config config_;
  ToneDetector detector_;
  audio::Microphone microphone_;
  WatchMatcher matcher_;
  std::vector<Handler> handlers_;  // one per watch, in watch order
  std::vector<char> active_;       // watch present in the previous block
  std::vector<BlockObserver> block_observers_;
  // What capture() hands publish(): the hop's end, its block, the tones
  // detected in it (a reused vector, so steady-state detection allocates
  // nothing), their signal stats and the two stage readings.
  net::SimTime captured_at_ = 0;
  audio::Waveform block_;
  std::vector<DetectedTone> tones_scratch_;
  obs::BlockSignalStats stats_;
  obs::Stage::Reading record_reading_;
  obs::Stage::Reading detect_reading_;
  // Ground-truth emission tags overlapping the current block, collected
  // only while the journal is enabled.  Fixed-size so the hot loop stays
  // allocation-free.  Sized for a fleet room: a dozen switches keying two
  // tone families can overlap one 50 ms block.
  std::array<audio::EmissionTag, 64> tag_scratch_{};
  std::size_t ntags_ = 0;
  std::vector<ToneEvent> log_;
  audio::Waveform recording_;
  bool running_ = false;
  bool series_pending_ = false;  // a tick series is scheduled
  std::uint64_t blocks_ = 0;
  // Registry instruments under "mdn/controller/..." plus the per-stage
  // wall timers behind §3's latency claims; spans go to the loop tracer
  // (record and detect from publish(), off their capture() readings).
  obs::Counter* blocks_counter_;
  obs::Counter* onsets_counter_;
  obs::Stage record_;
  obs::Stage detect_;
  obs::Stage match_;
};

}  // namespace mdn::core
