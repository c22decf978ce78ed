// Pi/speaker bridge and switch-side tone emitter.
//
// In the paper's testbed (Fig 1), each switch owns a Raspberry Pi wired to
// a cheap speaker: firmware marshals an MP message, the Pi unmarshals it
// and keys a tone.  PiSpeakerBridge is that Pi; MpEmitter is the firmware
// hook, with the rate policing a 120 KB-RAM device needs so back-to-back
// events cannot queue unbounded sound.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "audio/channel.h"
#include "mp/message.h"
#include "mp/tone_bank.h"
#include "net/event_loop.h"
#include "obs/journal.h"
#include "obs/metrics.h"

namespace mdn::mp {

/// The Pi's receive-decode-play latency when none is given.
inline constexpr net::SimTime kPiProcessingDelay = 2 * net::kMillisecond;

class PiSpeakerBridge {
 public:
  /// `source` must have been registered on `channel`; `processing_delay`
  /// models the Pi's receive-decode-play latency.  Tones come from
  /// `bank`, which must outlive the bridge; without one the bridge owns
  /// a bank of its own.
  PiSpeakerBridge(net::EventLoop& loop, audio::AcousticChannel& channel,
                  audio::SourceId source,
                  net::SimTime processing_delay = kPiProcessingDelay,
                  ToneBank* bank = nullptr);

  // Neither copyable nor movable: bank_ may point at own_bank_'s bank.
  PiSpeakerBridge(const PiSpeakerBridge&) = delete;
  PiSpeakerBridge& operator=(const PiSpeakerBridge&) = delete;

  /// Delivers a marshaled MP wire buffer (the lwIP path).  Malformed
  /// buffers are counted and ignored.
  void on_wire(std::span<const std::uint8_t> wire);

  /// Delivers an already-decoded message.
  void play(const MpMessage& msg);

  /// Scopes this bridge's kToneEmitted records to one microphone.  By
  /// default emissions carry no mic and the scoreboard treats them as
  /// ground truth for every mic (single-room semantics); a fleet bridge
  /// tags its room's mic so other rooms don't score its tones as misses.
  void set_journal_mic(std::uint32_t mic) noexcept { journal_mic_ = mic; }

  std::uint64_t played() const noexcept { return played_; }
  std::uint64_t malformed() const noexcept { return malformed_; }
  MpError last_error() const noexcept { return last_error_; }

 private:
  net::EventLoop& loop_;
  audio::AcousticChannel& channel_;
  audio::SourceId source_;
  net::SimTime processing_delay_;
  std::uint32_t journal_mic_ = obs::kJournalNoMic;
  std::uint64_t played_ = 0;
  std::uint64_t malformed_ = 0;
  MpError last_error_ = MpError::kNone;
  std::unique_ptr<ToneBank> own_bank_;  ///< set only when built without one
  ToneBank* bank_;
  obs::Counter* played_counter_;
  obs::Counter* malformed_counter_;
};

/// Switch-side emitter: builds MP messages, marshals them and hands the
/// wire bytes to the bridge (exactly the firmware -> Pi path).  Enforces a
/// minimum gap between emissions so a packet burst cannot produce an
/// unbounded tone pile-up.
class MpEmitter {
 public:
  MpEmitter(net::EventLoop& loop, PiSpeakerBridge& bridge,
            net::SimTime min_gap = 0);

  /// Emits a tone now (subject to the rate police).  Returns false when
  /// suppressed by the minimum-gap policy.
  bool emit(double frequency_hz, double duration_s, double intensity_db_spl);

  std::uint64_t emitted() const noexcept { return emitted_; }
  std::uint64_t suppressed() const noexcept { return suppressed_; }

 private:
  net::EventLoop& loop_;
  PiSpeakerBridge& bridge_;
  net::SimTime min_gap_;
  net::SimTime last_emit_ = -1;
  std::uint16_t next_sequence_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_ = 0;
  obs::Counter* emitted_counter_;
  obs::Counter* suppressed_counter_;
};

}  // namespace mdn::mp
