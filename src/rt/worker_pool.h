// Sharded detection workers for the streaming runtime.
//
// Microphones are sharded over workers by `mic % workers`, so every
// microphone's blocks are consumed by exactly one thread: the per-mic
// ring stays single-producer/single-consumer on the hot path, and the
// per-mic onset flags (which watch frequencies were present in the
// previous block) need no synchronisation at all.  All workers share one
// const ToneDetector — its detect_into() is thread-safe with thread-local
// scratch (see tone_detector.h) — and one const core::WatchMatcher, and
// push onsets into the OrderedMerge, which restores the canonical
// (seq, mic, watch) order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "audio/emission_tag.h"
#include "common/annotations.h"
#include "mdn/tone_detector.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/ordered_merge.h"
#include "rt/ring_buffer.h"

namespace mdn::rt {

/// How submit behaves when a microphone's ring is full.
enum class DropPolicy {
  kBlock,       ///< spin until the worker frees a slot (lossless)
  kDropOldest,  ///< reclaim the stalest queued block, keep the new one
  kDropNewest,  ///< discard the incoming block, keep the queue
};

/// One microphone block in flight: per-mic sequence number, source id,
/// block start time and the samples (a recycled buffer owned by value).
/// `tags` carries up to 8 ground-truth emission tags overlapping the
/// block (journal provenance; fixed-size so the ring slot stays
/// allocation-free and trivially recyclable).
struct AudioBlock {
  std::uint64_t seq = 0;
  std::uint32_t mic = 0;
  double start_s = 0.0;
  std::vector<double> samples;
  std::array<audio::EmissionTag, 8> tags{};
  std::uint8_t tag_count = 0;
  /// kBlockIngested journal id minted at submit (0 = journal off or
  /// untagged block); rides to the worker so detections can cite the
  /// capture hop via StreamEvent::ingest.
  std::uint64_t ingest = 0;
};

/// The SPSC lane between one microphone's producer and its shard worker.
struct MicQueue {
  explicit MicQueue(std::size_t capacity) : ring(capacity) {}
  RingBuffer<AudioBlock> ring;
  obs::Gauge* depth = nullptr;  ///< "rt/mic/<i>/queue_depth"
};

class WorkerPool {
 public:
  /// `detector`, `queues`, `merge` (and `health`, when set) must outlive
  /// the pool.  The watch list moves into the shared matcher; onset
  /// matching uses the detector's tolerance.  A non-null `health`
  /// receives per-block estimator updates for every microphone
  /// (health->estimator(mic) must exist for every queue); each mic's
  /// estimator is touched only by the worker owning that mic, preserving
  /// the single-writer contract.
  WorkerPool(const core::ToneDetector& detector,
             std::vector<double> watch_hz,
             std::vector<std::unique_ptr<MicQueue>>& queues,
             OrderedMerge& merge,
             RingBuffer<std::vector<double>>& free_buffers,
             std::size_t workers,
             obs::Health* health = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the workers and blocks until every one has finished its
  /// thread-local warm-up (plan tables, SIMD dispatch, detect scratch),
  /// so the multi-millisecond first-detect costs land here — before the
  /// caller starts timing — not in the first processed block.
  void start();

  /// Producers promise not to submit again; workers drain their rings,
  /// close their microphones in the merge and exit.
  // mo: release pairs with the workers' acquire — every block pushed before finish() is visible to the drain pass
  void finish() noexcept { producers_done_.store(true, std::memory_order_release); }

  void join();

  std::size_t worker_count() const noexcept { return workers_; }
  std::uint64_t blocks_processed() const noexcept {
    // mo: monitoring counter, no ordering needed with other state
    return processed_.load(std::memory_order_relaxed);
  }

 private:
  void run_worker(std::size_t index);
  /// The worker-side hot path for one block: detect into `tones` (the
  /// worker's grow-once vector), match, merge-push, advance the mic's
  /// watermark and recycle the sample buffer, timed by the worker's
  /// `wall` stage.  Steady-state allocation-free (audited in tests/rt).
  MDN_REALTIME void process_block(AudioBlock& block,
                                  std::vector<core::DetectedTone>& tones,
                                  std::vector<char>& active,
                                  const obs::Stage& wall);

  const core::ToneDetector& detector_;
  const core::WatchMatcher matcher_;
  std::vector<std::unique_ptr<MicQueue>>& queues_;
  OrderedMerge& merge_;
  RingBuffer<std::vector<double>>& free_buffers_;
  std::size_t workers_;
  obs::Health* health_;

  std::vector<std::thread> threads_;
  // active_[mic][watch]: tone present in the previous block.  Each row is
  // touched only by the worker that owns the microphone.
  std::vector<std::vector<char>> active_;
  std::atomic<bool> producers_done_{false};
  std::atomic<std::size_t> warmed_{0};
  std::atomic<std::uint64_t> processed_{0};
  obs::Counter* processed_counter_;
  obs::Counter* events_counter_;
};

}  // namespace mdn::rt
