#include "mdn/controller.h"

#include <cmath>
#include <stdexcept>

#include "obs/journal.h"

namespace mdn::core {
namespace {

// Tell the detector the exact block length the periodic tick will hand
// it, so its short-block analysis window is precomputed at construction
// ("plan cold, execute hot") rather than synthesised on first detect.
ToneDetectorConfig with_block_size(ToneDetectorConfig detector, double hop_s,
                                   double sample_rate) {
  detector.block_size = static_cast<std::size_t>(
      std::llround(hop_s * sample_rate));
  return detector;
}

}  // namespace

MdnController::MdnController(net::EventLoop& loop,
                             audio::AcousticChannel& channel,
                             const Config& config)
    : loop_(loop),
      channel_(channel),
      config_(config),
      detector_(with_block_size(config.detector, config.hop_s,
                                channel.sample_rate())),
      microphone_(config.microphone, channel.sample_rate()),
      matcher_({}, detector_.config().match_tolerance_hz),
      recording_(channel.sample_rate()) {
  auto& registry = obs::Registry::global();
  blocks_counter_ = &registry.counter("mdn/controller/blocks");
  onsets_counter_ = &registry.counter("mdn/controller/onsets");
  obs::Tracer& tracer = loop_.tracer();
  const std::uint32_t track = tracer.track("mdn/controller");
  const auto stage = [&](std::string_view span, const char* hist) {
    return obs::Stage(&registry.histogram(hist), &tracer, span, track);
  };
  record_ = stage("controller/record", "mdn/controller/record_wall_ns");
  detect_ = stage("controller/detect", "mdn/controller/detect_wall_ns");
  match_ = stage("controller/match", "mdn/controller/match_wall_ns");
}

void MdnController::watch(double frequency_hz, Handler handler) {
  matcher_.add(frequency_hz);
  handlers_.push_back(std::move(handler));
  active_.push_back(0);
}

void MdnController::watch_all(std::span<const double> watch_hz,
                              Handler handler) {
  for (double f : watch_hz) watch(f, handler);
}

void MdnController::observe_blocks(BlockObserver observer) {
  block_observers_.push_back(std::move(observer));
}

void MdnController::start(Clock clock) {
  if (running_) return;
  if (config_.health != nullptr &&
      config_.mic >= config_.health->mic_count()) {
    throw std::logic_error(
        "MdnController: health engine has no estimator for the mic");
  }
  running_ = true;
  // A series that has not yet fired since stop() is still scheduled and
  // resumes on its own phase; a second one would double every tick.
  if (clock == Clock::kExternal || series_pending_) return;
  series_pending_ = true;
  const net::SimTime hop = net::from_seconds(config_.hop_s);
  loop_.schedule_periodic(hop, hop, [this] {
    series_pending_ = tick();
    return series_pending_;
  });
}

bool MdnController::tick() {
  if (!running_) return false;
  capture(loop_.now());
  publish();
  return running_;
}

void MdnController::capture(net::SimTime sim_now) {
  captured_at_ = sim_now;
  const double now_s = net::to_seconds(sim_now);
  const double start_s = now_s - config_.hop_s;

  // Stage 1: record the last hop off the acoustic channel.
  {
    const auto timed = record_.realtime_scope(&record_reading_);
    block_ = microphone_.record(channel_, start_s, config_.hop_s);
  }

  // Provenance: recover the ground-truth tags of emissions overlapping
  // this block (journal on only; a single predicted-false branch when
  // off).  They resolve the block's detections in publish().
  ntags_ = 0;
  if (obs::Journal::global().enabled()) {
    ntags_ = channel_.collect_tags(
        microphone_.spec().position, start_s, now_s,
        std::span<audio::EmissionTag>(tag_scratch_));
  }

  // Stage 2: windowed FFT + peak picking (also feeds "dsp/fft/wall_ns").
  const auto timed = detect_.realtime_scope(&detect_reading_);
  detector_.detect_into(block_.samples(), tones_scratch_,
                        config_.health != nullptr ? &stats_ : nullptr);
}

void MdnController::publish() {
  const net::SimTime sim_now = captured_at_;
  const double now_s = net::to_seconds(sim_now);
  const double start_s = now_s - config_.hop_s;

  record_.span(sim_now, record_reading_);
  ++blocks_;
  blocks_counter_->inc();
  if (config_.keep_recording) recording_.append(block_);

  for (const auto& observer : block_observers_) {
    observer(start_s, block_.samples());
  }
  const std::span<const audio::EmissionTag> tags(tag_scratch_.data(), ntags_);

  // Ingest record: the capture boundary of the latency waterfall.  One
  // per tagged block, stamped at block END (the earliest sim time the
  // samples exist to be analysed), citing the first overlapping
  // emission; detections below cite it via cause2 so explain() shows
  // emitted -> ingested -> detected.
  obs::Journal& journal = obs::Journal::global();
  obs::CauseId ingest_id = 0;
  if (journal.enabled() && ntags_ > 0) {
    obs::JournalRecord rec;
    rec.kind = obs::JournalKind::kBlockIngested;
    rec.sim_ns = sim_now;
    rec.cause = tag_scratch_[0].cause;
    rec.mic = config_.mic;
    rec.aux = blocks_;
    obs::set_journal_label(rec, "ingest");
    ingest_id = journal.append(rec);
  }

  detect_.span(sim_now, detect_reading_);
  obs::MicSignalEstimator* est = nullptr;
  if (config_.health != nullptr) {
    est = &config_.health->estimator(config_.mic);
    est->begin_block(now_s, stats_);
  }

  // Stage 3: match detected peaks against the watch list.  Onsets are
  // journaled, logged and dispatched in watch order; the estimator's
  // evidence is upgraded from the emission tag to the detection record.
  {
    const auto timed = match_.scope(sim_now);
    matcher_.match(
        tones_scratch_, tags, active_, est,
        [&](std::size_t wi, double hz, double amplitude, obs::CauseId cause) {
          ToneEvent event{start_s, hz, amplitude};
          if (journal.enabled()) {
            // Detection record: cite the emitted tone whose frequency
            // this watch matched, when one overlapped the block (else 0
            // — a false positive the scoreboard will count).
            obs::JournalRecord rec;
            rec.kind = obs::JournalKind::kToneDetected;
            rec.sim_ns = sim_now;
            rec.frequency_hz = hz;
            rec.value = amplitude;
            rec.mic = config_.mic;
            rec.watch = static_cast<std::int32_t>(wi);
            rec.cause = cause;
            rec.cause2 = ingest_id;
            obs::set_journal_label(rec, "onset");
            event.cause = journal.append(rec);
          }
          log_.push_back(event);
          onsets_counter_->inc();
          loop_.tracer().instant("onset", match_.track(), sim_now);
          if (handlers_[wi]) handlers_[wi](event);
          return event.cause != 0 ? event.cause : cause;
        });
  }
  if (est != nullptr) {
    est->end_block();
    // The tick is also the owner-thread evaluation step, so alerts
    // surface at the block that tripped them.
    config_.health->poll();
  }
}

}  // namespace mdn::core
