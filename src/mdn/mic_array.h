// Microphone arrays (§8 research direction).
//
// "An interesting research direction is to coordinate an array of
// microphones listening to different groups of switches."  MicArray does
// the coordination: several MdnControllers — each with its own
// microphone position on the shared channel — feed their onsets into one
// merged stream.  Events for the same frequency heard by several
// microphones within a small window are fused into a single event that
// records how many (and which) microphones heard it, so distant switches
// only need to be in range of *some* microphone.  When the microphones'
// blocks are detected on an rt::StreamRuntime instead, its merged events
// enter the same stream through ingest_event().
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "mdn/controller.h"

namespace mdn::core {

class MicArray {
 public:
  struct MergedEvent {
    double time_s = 0.0;        ///< earliest hearing
    double frequency_hz = 0.0;
    double amplitude = 0.0;     ///< strongest hearing
    std::string first_mic;      ///< microphone that heard it first
    std::size_t heard_by = 0;   ///< number of microphones that heard it
    /// Journal id of the kMergedEvent record, chained from the first
    /// hearing's detection (0 = journal disabled).
    std::uint64_t cause = 0;
  };
  using Handler = std::function<void(const MergedEvent&)>;

  /// Events for one frequency closer together than `dedup_window_s` are
  /// treated as the same physical tone.
  explicit MicArray(double dedup_window_s = 0.12)
      : dedup_window_s_(dedup_window_s) {}

  /// Subscribes `controller` (one microphone) to `watch_hz` and routes
  /// its onsets into the merged stream under `mic_name`.
  void attach(MdnController& controller, std::span<const double> watch_hz,
              std::string mic_name);

  /// Feeds one onset heard by `mic` into the merged stream — the entry
  /// point used by attach()'s handlers.  A caller running detection on
  /// rt::StreamRuntime calls it from the runtime's on_event() handler,
  /// which delivers merged events in the runtime's deterministic order.
  void ingest_event(const std::string& mic, const ToneEvent& event);

  /// Fires once per *merged* event, on first hearing.
  void on_event(Handler handler) { handler_ = std::move(handler); }

  const std::vector<MergedEvent>& events() const noexcept {
    return merged_;
  }
  std::size_t microphone_count() const noexcept { return mics_; }

  /// Number of merged events heard by at least `k` microphones.
  std::size_t events_heard_by_at_least(std::size_t k) const;

 private:
  double dedup_window_s_;
  std::size_t mics_ = 0;
  std::vector<MergedEvent> merged_;
  Handler handler_;
};

}  // namespace mdn::core
