#include "rt/worker_pool.h"

#include <span>
#include <string>

namespace mdn::rt {

WorkerPool::WorkerPool(const core::ToneDetector& detector,
                       std::vector<double> watch_hz,
                       std::vector<std::unique_ptr<MicQueue>>& queues,
                       OrderedMerge& merge,
                       RingBuffer<std::vector<double>>& free_buffers,
                       std::size_t workers,
                       obs::Health* health)
    : detector_(detector),
      matcher_(std::move(watch_hz), detector.config().match_tolerance_hz),
      queues_(queues),
      merge_(merge),
      free_buffers_(free_buffers),
      workers_(workers == 0 ? 1 : workers),
      health_(health) {
  auto& registry = obs::Registry::global();
  processed_counter_ = &registry.counter("rt/runtime/blocks_processed");
  events_counter_ = &registry.counter("rt/runtime/events");
  active_.resize(queues_.size());
  for (auto& row : active_) row.assign(matcher_.size(), 0);
}

WorkerPool::~WorkerPool() {
  finish();
  join();
}

void WorkerPool::start() {
  if (!threads_.empty()) return;
  threads_.reserve(workers_);
  for (std::size_t t = 0; t < workers_; ++t) {
    threads_.emplace_back([this, t] { run_worker(t); });
  }
  // Warm-up handshake: don't return until every worker has built its
  // plan tables and thread-local scratch, so callers that time the
  // steady state (benches, latency SLOs) never see first-detect costs.
  // mo: pairs with each worker's release increment — warm-up writes (plans, scratch) are visible once the count matches
  while (warmed_.load(std::memory_order_acquire) < workers_) {
    std::this_thread::yield();
  }
}

void WorkerPool::join() {
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
}

void WorkerPool::run_worker(std::size_t index) {
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
    // mo: pairs with finish()'s release store — the final blocks precede the close decision
    const bool producers_done = producers_done_.load(std::memory_order_acquire);
    bool did_work = false;
    bool all_closed = true;
    for (std::size_t mic = index; mic < queues_.size(); mic += workers_) {
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

void WorkerPool::process_block(AudioBlock& block,
                               std::vector<core::DetectedTone>& tones,
                               std::vector<char>& active,
                               const obs::Stage& wall) {
  const auto timed = wall.realtime_scope();
  obs::BlockSignalStats stats;
  detector_.detect_into(block.samples, tones,
                        health_ != nullptr ? &stats : nullptr);

  obs::MicSignalEstimator* est = nullptr;
  if (health_ != nullptr) {
    // Health estimator updates ride the block in per-mic seq order —
    // the mic's single owning worker is the single writer, so the
    // estimator trajectory (and any alert it queues) is deterministic
    // regardless of worker count.
    est = &health_->estimator(block.mic);
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
  (void)free_buffers_.try_push(std::move(block.samples));

  // mo: monitoring counter, no ordering needed with other state
  processed_.fetch_add(1, std::memory_order_relaxed);
  processed_counter_->add(1);
  if (events > 0) events_counter_->add(events);
}

}  // namespace mdn::rt
