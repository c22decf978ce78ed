// StreamRuntime: the parallel streaming detection runtime.
//
// The paper's controller is one listener doing one FFT per 50 ms hop
// (§3).  At production scale many microphones (or switch-group channel
// taps) must be decoded concurrently; this runtime is that layer:
//
//   producers (one per microphone)
//        │  submit_block() — copy into a recycled buffer
//        ▼
//   per-mic lock-free ring (rt/ring_buffer.h, bounded, drop policy)
//        ▼
//   sharded workers — shared const ToneDetector and WatchMatcher,
//        │  per-thread FFT scratch, per-mic onset state
//        ▼
//   ordered merge (rt/ordered_merge.h) — deterministic (seq, mic, watch)
//        ▼
//   poll()/finish() — events delivered on the owner thread, in an order
//        that is bit-identical to the single-threaded MdnController path
//        regardless of worker count (given the lossless kBlock policy).
//
// Microphones are sharded over workers by `mic % workers`, so every
// microphone's blocks are consumed by exactly one thread: the per-mic
// ring stays single-producer/single-consumer on the hot path, and the
// per-mic onset flags (which watch frequencies were present in the
// previous block) need no synchronisation at all.  The detector's
// detect_into() is thread-safe with thread-local scratch (see
// tone_detector.h).  A caller feeding a core::MicArray routes merged
// events from on_event() into MicArray::ingest_event().
//
// Backpressure is explicit: every ring is fixed-capacity and the drop
// policy (Block / DropOldest / DropNewest) decides what happens when a
// worker falls behind; every drop is counted in the obs registry
// ("rt/runtime/drops_*"), queue depths are gauges ("rt/mic/<i>/
// queue_depth") and per-worker block latency is a histogram
// ("rt/worker/<t>/block_wall_ns").
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
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

struct StreamRuntimeConfig {
  std::size_t workers = 2;
  /// Blocks buffered per microphone before the drop policy engages.
  std::size_t ring_capacity = 64;
  DropPolicy drop_policy = DropPolicy::kBlock;
  core::ToneDetectorConfig detector;
  /// Frequencies matched against detected peaks; the watch index of an
  /// event is its position in this list.
  std::vector<double> watch_hz;
  /// Optional health engine (must outlive the runtime).  Workers feed
  /// per-mic signal estimators on the hot path; poll()/finish() run the
  /// alert engine on the owner thread.  Wire health->add_mic() in the
  /// same order as StreamRuntime::add_mic() — start() verifies the
  /// counts line up.  Each mic's estimator is touched only by the
  /// worker owning that mic, preserving the single-writer contract.
  obs::Health* health = nullptr;
};

struct StreamRuntimeStats {
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped_oldest = 0;
  std::uint64_t dropped_newest = 0;
  std::uint64_t delivered = 0;  ///< merged events handed to poll()/handler
};

class StreamRuntime {
 public:
  explicit StreamRuntime(StreamRuntimeConfig config);
  ~StreamRuntime();

  StreamRuntime(const StreamRuntime&) = delete;
  StreamRuntime& operator=(const StreamRuntime&) = delete;

  /// Registers one microphone (before start()); returns its id — the
  /// `mic` field of submitted blocks and merged events.
  std::uint32_t add_mic(std::string name);
  std::size_t mic_count() const noexcept { return mic_names_.size(); }
  const std::string& mic_name(std::uint32_t mic) const {
    return mic_names_.at(mic);
  }

  /// Fires for every merged event, in canonical order, on the thread
  /// that calls poll()/finish().  Set before start().
  using Handler = std::function<void(const StreamEvent&)>;
  void on_event(Handler handler) { handler_ = std::move(handler); }

  /// Spawns the workers and blocks until every one has finished its
  /// thread-local warm-up (plan tables, SIMD dispatch, detect scratch),
  /// so the multi-millisecond first-detect costs land here — before the
  /// caller starts timing — not in the first processed block.  Topology
  /// (mics, handler) is frozen.
  void start();

  /// Producer hot path; safe from one thread per microphone.  Returns
  /// false when the block was dropped (kDropNewest) — drops under
  /// kDropOldest discard an older block and still return true.  Legal
  /// before start() (blocks queue up for the workers), illegal after
  /// finish(); submitting to a full ring under kBlock before start()
  /// spins until workers exist.  A mic id add_mic() never returned
  /// throws std::out_of_range.  The samples are copied before
  /// returning.  `tags` (at most 8 kept) are the ground-truth emission
  /// ids overlapping the block; a drop mints a journal record citing
  /// them, a detection cites the matching one.
  bool submit_block(std::uint32_t mic, double start_s,
                    std::span<const double> samples,
                    std::span<const audio::EmissionTag> tags = {});

  /// Releases every merge-complete event: appends to events() (unless
  /// record_events is off) and invokes the handler.  Returns the number
  /// released.  Call from the owning thread only.
  std::size_t poll();

  /// Declares the end of input: waits for workers to drain every ring,
  /// joins them and performs the final poll().  Idempotent; submitting
  /// after finish() throws std::logic_error.
  void finish();

  /// All events delivered so far, in canonical order.
  const std::vector<StreamEvent>& events() const noexcept { return events_; }
  /// Keep delivered events in events() (default).  Disable to make the
  /// steady-state delivery path allocation-free for long-running use.
  void set_record_events(bool keep) noexcept { record_events_ = keep; }

  StreamRuntimeStats stats() const;
  const StreamRuntimeConfig& config() const noexcept { return config_; }

 private:
  /// The SPSC lane between one microphone's producer and its shard
  /// worker.
  struct MicQueue {
    explicit MicQueue(std::size_t capacity) : ring(capacity) {}
    RingBuffer<AudioBlock> ring;
    obs::Gauge* depth = nullptr;  ///< "rt/mic/<i>/queue_depth"
  };

  std::vector<double> acquire_buffer();
  /// Producers promise not to submit again; workers drain their rings,
  /// close their microphones in the merge and exit.  Joins them.
  void stop_workers() noexcept;
  void run_worker(std::size_t index);
  /// The worker-side hot path for one block: detect into `tones` (the
  /// worker's grow-once vector), match, merge-push, advance the mic's
  /// watermark and recycle the sample buffer, timed by the worker's
  /// `wall` stage.  Steady-state allocation-free (audited in tests/rt).
  MDN_REALTIME void process_block(AudioBlock& block,
                                  std::vector<core::DetectedTone>& tones,
                                  std::vector<char>& active,
                                  const obs::Stage& wall);

  StreamRuntimeConfig config_;
  core::ToneDetector detector_;
  // The watch list; onset matching uses the detector's tolerance.
  const core::WatchMatcher matcher_;
  // Configured block length in seconds: stamps ingest, drop and
  // detection records at block end.
  double block_s_;
  std::vector<std::string> mic_names_;
  std::vector<std::unique_ptr<MicQueue>> queues_;
  std::vector<std::uint64_t> next_seq_;  // per mic, producer side
  OrderedMerge merge_;
  std::unique_ptr<RingBuffer<std::vector<double>>> free_buffers_;
  Handler handler_;
  std::vector<StreamEvent> events_;
  std::vector<StreamEvent> ready_scratch_;
  bool record_events_ = true;
  bool started_ = false;
  bool finished_ = false;

  // active_[mic][watch]: tone present in the previous block.  Each row is
  // touched only by the worker that owns the microphone.
  std::vector<std::vector<char>> active_;
  std::atomic<bool> producers_done_{false};
  std::atomic<std::size_t> warmed_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> dropped_oldest_{0};
  std::atomic<std::uint64_t> dropped_newest_{0};
  std::uint64_t delivered_ = 0;
  obs::Counter* submitted_counter_;
  obs::Counter* processed_counter_;
  obs::Counter* events_counter_;
  obs::Counter* drops_oldest_counter_;
  obs::Counter* drops_newest_counter_;
  // Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace mdn::rt
