#include "rt/stream_runtime.h"

#include <algorithm>
#include <stdexcept>

#include "net/sim_time.h"
#include "obs/journal.h"

namespace mdn::rt {
namespace {

// Drop attribution: one kBlockDropped record per ground-truth tag the
// discarded block carried (so the scoreboard can blame each missed tone
// on backpressure), or a single untagged record when none rode along.
// Stamped at block end, like the block's ingest record, so a drop never
// sorts before the emission it cites.  Returns the last minted record id
// (0 when the journal is disabled) so the health layer can cite the drop
// as alert evidence.
obs::CauseId journal_dropped_block(const AudioBlock& block, double block_s,
                                   const char* why) {
  obs::Journal& journal = obs::Journal::global();
  if (!journal.enabled()) return 0;
  obs::JournalRecord rec;
  rec.kind = obs::JournalKind::kBlockDropped;
  rec.sim_ns = net::from_seconds(block.start_s + block_s);
  rec.mic = block.mic;
  rec.aux = block.seq;
  obs::set_journal_label(rec, why);
  if (block.tag_count == 0) {
    return journal.append(rec);
  }
  obs::CauseId last = 0;
  for (std::uint8_t k = 0; k < block.tag_count; ++k) {
    rec.cause = block.tags[k].cause;
    rec.frequency_hz = block.tags[k].frequency_hz;
    last = journal.append(rec);
  }
  return last;
}

}  // namespace

StreamRuntime::StreamRuntime(StreamRuntimeConfig config)
    : config_(std::move(config)),
      detector_(config_.detector),
      matcher_(config_.watch_hz, detector_.config().match_tolerance_hz),
      block_s_(static_cast<double>(detector_.config().block_size) /
               detector_.config().sample_rate) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.ring_capacity == 0) config_.ring_capacity = 2;
  auto& registry = obs::Registry::global();
  submitted_counter_ = &registry.counter("rt/runtime/blocks_submitted");
  processed_counter_ = &registry.counter("rt/runtime/blocks_processed");
  events_counter_ = &registry.counter("rt/runtime/events");
  drops_oldest_counter_ = &registry.counter("rt/runtime/drops_oldest");
  drops_newest_counter_ = &registry.counter("rt/runtime/drops_newest");
}

StreamRuntime::~StreamRuntime() {
  // Stop workers without delivering remaining events: user objects wired
  // into the handler may already be gone.  Call finish() for a clean,
  // fully delivered shutdown.
  stop_workers();
}

std::uint32_t StreamRuntime::add_mic(std::string name) {
  if (started_) {
    throw std::logic_error("StreamRuntime: add_mic after start");
  }
  mic_names_.push_back(std::move(name));
  queues_.push_back(std::make_unique<MicQueue>(config_.ring_capacity));
  queues_.back()->depth = &obs::Registry::global().gauge(
      "rt/mic/" + std::to_string(mic_names_.size() - 1) + "/queue_depth");
  next_seq_.push_back(0);
  const std::uint32_t id = merge_.add_source();
  return id;
}

void StreamRuntime::start() {
  if (started_) return;
  if (config_.health != nullptr &&
      config_.health->mic_count() < queues_.size()) {
    throw std::logic_error(
        "StreamRuntime: health engine has fewer mics than the runtime");
  }
  started_ = true;
  // Enough recycled buffers for every ring slot plus one block in flight
  // per worker.
  const std::size_t pool_size = queues_.size() * config_.ring_capacity +
                                config_.workers + queues_.size() + 1;
  free_buffers_ = std::make_unique<RingBuffer<std::vector<double>>>(pool_size);
  active_.assign(queues_.size(), std::vector<char>(matcher_.size(), 0));
  threads_.reserve(config_.workers);
  for (std::size_t t = 0; t < config_.workers; ++t) {
    threads_.emplace_back([this, t] { run_worker(t); });
  }
  // Warm-up handshake: don't return until every worker has built its
  // plan tables and thread-local scratch, so callers that time the
  // steady state (benches, latency SLOs) never see first-detect costs.
  // mo: pairs with each worker's release increment — warm-up writes (plans, scratch) are visible once the count matches
  while (warmed_.load(std::memory_order_acquire) < config_.workers) {
    std::this_thread::yield();
  }
}

void StreamRuntime::stop_workers() noexcept {
  // mo: release pairs with the workers' acquire — every block pushed before this store is visible to the drain pass
  producers_done_.store(true, std::memory_order_release);
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
}

std::vector<double> StreamRuntime::acquire_buffer() {
  std::vector<double> buffer;
  if (free_buffers_ != nullptr) {
    (void)free_buffers_->try_pop(buffer);  // empty vector when none free
  }
  return buffer;
}

bool StreamRuntime::submit_block(std::uint32_t mic, double start_s,
                                 std::span<const double> samples,
                                 std::span<const audio::EmissionTag> tags) {
  if (finished_) {
    throw std::logic_error("StreamRuntime: submit after finish()");
  }
  if (mic >= queues_.size()) {
    throw std::out_of_range("StreamRuntime: submit to an unknown mic");
  }
  std::vector<double> buffer = acquire_buffer();
  buffer.assign(samples.begin(), samples.end());
  AudioBlock block{next_seq_[mic], mic, start_s, std::move(buffer)};
  block.tag_count = static_cast<std::uint8_t>(
      std::min(tags.size(), block.tags.size()));
  std::copy_n(tags.begin(), block.tag_count, block.tags.begin());
  obs::Journal& journal = obs::Journal::global();
  if (journal.enabled() && block.tag_count > 0) {
    // Ingest record, stamped at block END (when the samples exist to be
    // analysed) so it sorts between the emission and the detection it
    // will be cited by (StreamEvent::ingest -> detection cause2).
    obs::JournalRecord rec;
    rec.kind = obs::JournalKind::kBlockIngested;
    rec.sim_ns = net::from_seconds(start_s + block_s_);
    rec.cause = block.tags[0].cause;
    rec.mic = mic;
    rec.aux = block.seq;
    obs::set_journal_label(rec, "rt_ingest");
    block.ingest = journal.append(rec);
  }
  MicQueue& q = *queues_[mic];

  switch (config_.drop_policy) {
    case DropPolicy::kBlock:
      while (!q.ring.try_push(std::move(block))) {
        std::this_thread::yield();
      }
      break;
    case DropPolicy::kDropNewest:
      if (!q.ring.try_push(std::move(block))) {
        const obs::CauseId drop_id =
            journal_dropped_block(block, block_s_, "drop_newest");
        if (config_.health != nullptr) {
          config_.health->estimator(mic).note_drop(drop_id);
        }
        // mo: monitoring counter, no ordering needed with other state
        dropped_newest_.fetch_add(1, std::memory_order_relaxed);
        drops_newest_counter_->inc();
        return false;  // seq not consumed: the stream stays contiguous
      }
      break;
    case DropPolicy::kDropOldest:
      while (!q.ring.try_push(std::move(block))) {
        AudioBlock oldest;
        if (q.ring.try_pop(oldest)) {
          if (q.depth != nullptr) q.depth->add(-1);
          const obs::CauseId drop_id =
              journal_dropped_block(oldest, block_s_, "drop_oldest");
          if (config_.health != nullptr) {
            config_.health->estimator(oldest.mic).note_drop(drop_id);
          }
          // mo: monitoring counter, no ordering needed with other state
          dropped_oldest_.fetch_add(1, std::memory_order_relaxed);
          drops_oldest_counter_->inc();
          oldest.samples.clear();
          if (free_buffers_ != nullptr) {
            (void)free_buffers_->try_push(std::move(oldest.samples));
          }
        } else {
          std::this_thread::yield();  // worker got there first
        }
      }
      break;
  }
  ++next_seq_[mic];
  if (q.depth != nullptr) q.depth->add(1);
  // mo: monitoring counter, no ordering needed with other state
  submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_counter_->inc();
  return true;
}

void StreamRuntime::run_worker(std::size_t index) {
  // All first-call costs — plan build, SIMD dispatch selection, this
  // thread's detect scratch, its registry lookup — happen before the
  // handshake completes, so nothing multi-millisecond pollutes the first
  // timed block.
  const obs::Stage wall(&obs::Registry::global().histogram(
      "rt/worker/" + std::to_string(index) + "/block_wall_ns"));
  detector_.warm_up();
  // mo: release publishes this worker's warm-up state to start()'s acquire loop
  warmed_.fetch_add(1, std::memory_order_release);

  AudioBlock block;
  std::vector<core::DetectedTone> tones;
  std::vector<char> closed(queues_.size(), 0);
  for (;;) {
    // Read the flag once per sweep, before any pop: every block pushed
    // before finish() is then visible to this sweep's pops, so a ring
    // found empty after a true flag is really drained.  (Loading it after
    // an empty pop would close a mic whose last block landed in between.)
    // mo: pairs with stop_workers()' release store — the final blocks precede the close decision
    const bool producers_done = producers_done_.load(std::memory_order_acquire);
    bool did_work = false;
    bool all_closed = true;
    for (std::size_t mic = index; mic < queues_.size();
         mic += config_.workers) {
      if (closed[mic]) continue;
      MicQueue& q = *queues_[mic];
      if (q.ring.try_pop(block)) {
        if (q.depth != nullptr) q.depth->add(-1);
        process_block(block, tones, active_[mic], wall);
        did_work = true;
        all_closed = false;
      } else if (producers_done) {
        // Ring drained and no producer will refill it: this microphone
        // is finished — stop gating the merge watermark on it.
        merge_.close(static_cast<std::uint32_t>(mic));
        closed[mic] = 1;
      } else {
        all_closed = false;
      }
    }
    if (all_closed) break;
    if (!did_work) std::this_thread::yield();
  }
}

void StreamRuntime::process_block(AudioBlock& block,
                                  std::vector<core::DetectedTone>& tones,
                                  std::vector<char>& active,
                                  const obs::Stage& wall) {
  const auto timed = wall.realtime_scope();
  obs::BlockSignalStats stats;
  detector_.detect_into(block.samples, tones,
                        config_.health != nullptr ? &stats : nullptr);

  obs::MicSignalEstimator* est = nullptr;
  if (config_.health != nullptr) {
    // Health estimator updates ride the block in per-mic seq order —
    // the mic's single owning worker is the single writer, so the
    // estimator trajectory (and any alert it queues) is deterministic
    // regardless of worker count.
    est = &config_.health->estimator(block.mic);
    est->begin_block(block.start_s +
                         static_cast<double>(block.samples.size()) /
                             detector_.config().sample_rate,
                     stats);
  }
  // The same core::WatchMatcher as the serial controller path, so the
  // merged stream stays bit-equal to it.  The cause is the ground-truth
  // emission whose frequency the watch matched, if one rode in with the
  // block: pure per-block arithmetic, identical regardless of worker
  // count.
  std::uint64_t events = 0;
  matcher_.match(
      tones,
      std::span<const audio::EmissionTag>(block.tags.data(), block.tag_count),
      active, est,
      [&](std::size_t w, double hz, double amplitude, obs::CauseId cause) {
        merge_.push({block.seq, block.mic, static_cast<std::uint32_t>(w),
                     block.start_s, hz, amplitude, cause, block.ingest});
        ++events;
        return cause;
      });
  if (est != nullptr) est->end_block();
  // Events of a block are pushed before the watermark moves past it —
  // the merge relies on this ordering.
  merge_.advance(block.mic, block.seq + 1);
  // Recycle the sample buffer; if the free ring is full the buffer is
  // simply deallocated (cold path).
  block.samples.clear();
  (void)free_buffers_->try_push(std::move(block.samples));

  // mo: monitoring counter, no ordering needed with other state
  processed_.fetch_add(1, std::memory_order_relaxed);
  processed_counter_->add(1);
  if (events > 0) events_counter_->add(events);
}

std::size_t StreamRuntime::poll() {
  ready_scratch_.clear();
  const std::size_t released = merge_.drain_ready(ready_scratch_);
  obs::Journal& journal = obs::Journal::global();
  const bool journal_on = journal.enabled();
  for (StreamEvent& event : ready_scratch_) {
    if (journal_on) {
      // Mint the detection record on the owner thread, in canonical
      // merge order, citing the emission the worker resolved; then
      // rewrite the event's cause to the detection id so downstream
      // consumers (FSMs, apps) chain from the detection, not the tone.
      obs::JournalRecord rec;
      rec.kind = obs::JournalKind::kToneDetected;
      rec.cause = event.cause;
      // Detection time = block end (the onset is only known once the
      // block has been fully recorded and analysed), matching the inline
      // controller's sim-time stamp so latencies are comparable.
      rec.sim_ns = net::from_seconds(event.time_s + block_s_);
      rec.frequency_hz = event.frequency_hz;
      rec.value = event.amplitude;
      rec.mic = event.mic;
      rec.watch = static_cast<std::int32_t>(event.watch);
      rec.aux = event.seq;
      rec.cause2 = event.ingest;
      obs::set_journal_label(rec, "rt_onset");
      event.cause = journal.append(rec);
    }
    if (record_events_) events_.push_back(event);
    if (handler_) handler_(event);
  }
  delivered_ += released;
  // Alert engine step: drain estimator transitions, mint kHealthAlert
  // records (owner thread, after the detections they may cite).
  if (config_.health != nullptr) config_.health->poll();
  return released;
}

void StreamRuntime::finish() {
  if (finished_) return;
  // Blocks may have been queued before start(); spin the workers up so
  // nothing submitted is ever silently lost.
  if (!started_) start();
  stop_workers();
  finished_ = true;
  poll();  // every source closed: watermark is infinite, all events out
}

StreamRuntimeStats StreamRuntime::stats() const {
  StreamRuntimeStats s;
  // mo: snapshot read, torn multi-field views are acceptable
  s.submitted = submitted_.load(std::memory_order_relaxed);
  // mo: snapshot read, torn multi-field views are acceptable
  s.processed = processed_.load(std::memory_order_relaxed);
  // mo: snapshot read, torn multi-field views are acceptable
  s.dropped_oldest = dropped_oldest_.load(std::memory_order_relaxed);
  // mo: snapshot read, torn multi-field views are acceptable
  s.dropped_newest = dropped_newest_.load(std::memory_order_relaxed);
  s.delivered = delivered_;
  return s;
}

}  // namespace mdn::rt
