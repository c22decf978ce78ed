#include "mp/bridge.h"
#include <algorithm>

#include "audio/synth.h"
#include "obs/journal.h"

namespace mdn::mp {

PiSpeakerBridge::PiSpeakerBridge(net::EventLoop& loop,
                                 audio::AcousticChannel& channel,
                                 audio::SourceId source,
                                 net::SimTime processing_delay,
                                 ToneBank* bank)
    : loop_(loop),
      channel_(channel),
      source_(source),
      processing_delay_(processing_delay),
      own_bank_(bank == nullptr ? std::make_unique<ToneBank>() : nullptr),
      bank_(bank == nullptr ? own_bank_.get() : bank),
      played_counter_(
          &obs::Registry::global().counter("mp/bridge/tones_played")),
      malformed_counter_(
          &obs::Registry::global().counter("mp/bridge/malformed")) {}

void PiSpeakerBridge::on_wire(std::span<const std::uint8_t> wire) {
  MpError err = MpError::kNone;
  const auto msg = unmarshal(wire, &err);
  if (!msg) {
    ++malformed_;
    malformed_counter_->inc();
    last_error_ = err;
    return;
  }
  play(*msg);
}

void PiSpeakerBridge::play(const MpMessage& msg) {
  audio::ToneSpec spec;
  spec.frequency_hz = msg.frequency_hz;
  spec.duration_s = msg.duration_s;
  spec.amplitude = audio::spl_to_amplitude(msg.intensity_db_spl);
  // Generous raised-cosine fades: a tone whose onset or offset lands
  // inside a listening block would otherwise splatter energy across the
  // 20 Hz frequency grid and register as other devices' symbols.
  spec.fade_s = std::min(0.015, msg.duration_s / 3.0);
  const double start_s =
      net::to_seconds(loop_.now() + processing_delay_);
  audio::EmissionTag tag{};
  obs::Journal& journal = obs::Journal::global();
  if (journal.enabled()) {
    // Ground truth for the scoreboard: this exact tone left this
    // speaker at this sim time.  The minted id rides the emission so
    // detections (and rt drops) can cite it.
    obs::JournalRecord record;
    record.kind = obs::JournalKind::kToneEmitted;
    record.sim_ns = loop_.now() + processing_delay_;
    record.frequency_hz = msg.frequency_hz;
    record.value = msg.intensity_db_spl;
    record.aux = source_;
    record.mic = journal_mic_;
    obs::set_journal_label(record, channel_.source_name(source_));
    tag = {journal.append(record), msg.frequency_hz};
  }
  channel_.emit(source_, bank_->tone(spec, channel_.sample_rate()), start_s,
                tag);
  ++played_;
  played_counter_->inc();
}

MpEmitter::MpEmitter(net::EventLoop& loop, PiSpeakerBridge& bridge,
                     net::SimTime min_gap)
    : loop_(loop),
      bridge_(bridge),
      min_gap_(min_gap),
      emitted_counter_(&obs::Registry::global().counter("mp/emitter/emitted")),
      suppressed_counter_(
          &obs::Registry::global().counter("mp/emitter/suppressed")) {}

bool MpEmitter::emit(double frequency_hz, double duration_s,
                     double intensity_db_spl) {
  const net::SimTime now = loop_.now();
  if (last_emit_ >= 0 && now - last_emit_ < min_gap_) {
    ++suppressed_;
    suppressed_counter_->inc();
    return false;
  }
  last_emit_ = now;

  MpMessage msg;
  msg.frequency_hz = frequency_hz;
  msg.duration_s = duration_s;
  msg.intensity_db_spl = intensity_db_spl;
  msg.sequence = next_sequence_++;
  // Marshal/unmarshal round trip on purpose: experiments exercise the
  // same wire path the firmware uses.
  bridge_.on_wire(marshal(msg));
  ++emitted_;
  emitted_counter_->inc();
  return true;
}

}  // namespace mdn::mp
