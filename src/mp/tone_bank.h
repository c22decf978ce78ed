// Tone bank: each distinct tone synthesised once, emitted by reference.
//
// MP messages repeat.  A fleet episode plays thousands of tones drawn from
// a few hundred (frequency, duration, intensity) specs, so the Pi bridge
// asks a ToneBank instead of calling audio::make_tone per message.  The
// bank memoises make_tone's output per exact (ToneSpec, sample rate) and
// hands out shared immutable templates that AcousticChannel emissions
// hold by reference.
//
// There is no process-wide instance: core::Fleet owns one bank for all of
// its bridges and a standalone bridge owns its own, so every run pays for
// its own syntheses, as a fresh process would.  Nothing is evicted: the
// bank holds one template per distinct spec, never more than the
// channel's emission list would hold as copies.  Not thread-safe; share a
// bank only among bridges driven by one event loop.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "audio/synth.h"
#include "audio/waveform.h"
#include "obs/metrics.h"

namespace mdn::mp {

class ToneBank {
 public:
  ToneBank();

  /// Exactly audio::make_tone(spec, sample_rate), synthesised on the
  /// first request for this spec and shared on every later one.  Keys
  /// compare every ToneSpec field and the sample rate bit for bit.
  std::shared_ptr<const audio::Waveform> tone(const audio::ToneSpec& spec,
                                              double sample_rate);

  /// Templates held, which is the number of syntheses performed.
  std::size_t size() const noexcept { return templates_.size(); }

 private:
  using Key = std::array<std::uint64_t, 6>;
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };

  std::unordered_map<Key, std::shared_ptr<const audio::Waveform>, KeyHash>
      templates_;
  obs::Counter* synthesised_counter_;
};

}  // namespace mdn::mp
