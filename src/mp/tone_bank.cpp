#include "mp/tone_bank.h"

#include <bit>

namespace mdn::mp {

ToneBank::ToneBank()
    : synthesised_counter_(
          &obs::Registry::global().counter("mp/bridge/tones_synthesised")) {}

std::size_t ToneBank::KeyHash::operator()(const Key& key) const noexcept {
  std::uint64_t h = 0;
  for (const std::uint64_t v : key) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const audio::Waveform> ToneBank::tone(
    const audio::ToneSpec& spec, double sample_rate) {
  // Bit patterns, not ==: equal keys must mean bit-identical make_tone
  // output, and -0.0 == 0.0 would not promise that.
  const Key key{std::bit_cast<std::uint64_t>(spec.frequency_hz),
                std::bit_cast<std::uint64_t>(spec.duration_s),
                std::bit_cast<std::uint64_t>(spec.amplitude),
                std::bit_cast<std::uint64_t>(spec.phase_rad),
                std::bit_cast<std::uint64_t>(spec.fade_s),
                std::bit_cast<std::uint64_t>(sample_rate)};
  if (const auto it = templates_.find(key); it != templates_.end()) {
    return it->second;
  }
  // Synthesise before inserting: make_tone throws on a bad sample rate,
  // and a failed synthesis must not leave an empty entry behind.
  auto made = std::make_shared<const audio::Waveform>(
      audio::make_tone(spec, sample_rate));
  templates_.emplace(key, made);
  synthesised_counter_->inc();
  return made;
}

}  // namespace mdn::mp
