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
//   sharded worker pool (rt/worker_pool.h) — shared const ToneDetector,
//        │  per-thread FFT scratch, per-mic onset state
//        ▼
//   ordered merge (rt/ordered_merge.h) — deterministic (seq, mic, watch)
//        ▼
//   poll()/finish() — events delivered on the owner thread, in an order
//        that is bit-identical to the single-threaded MdnController path
//        regardless of worker count (given the lossless kBlock policy).
//
// Backpressure is explicit: every ring is fixed-capacity and the drop
// policy (Block / DropOldest / DropNewest) decides what happens when a
// worker falls behind; every drop is counted in the obs registry
// ("rt/runtime/drops_*"), queue depths are gauges ("rt/mic/<i>/
// queue_depth") and per-worker block latency is a histogram
// ("rt/worker/<t>/block_wall_ns").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mdn/block_sink.h"
#include "mdn/tone_detector.h"
#include "obs/metrics.h"
#include "rt/ordered_merge.h"
#include "rt/worker_pool.h"

namespace mdn::core {
class MicArray;
}  // namespace mdn::core

namespace mdn::rt {

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
  /// counts line up.
  obs::Health* health = nullptr;
};

struct StreamRuntimeStats {
  std::uint64_t submitted = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped_oldest = 0;
  std::uint64_t dropped_newest = 0;
  std::uint64_t delivered = 0;  ///< merged events handed to poll()/handler
};

class StreamRuntime final : public core::BlockSink {
 public:
  explicit StreamRuntime(StreamRuntimeConfig config);
  ~StreamRuntime() override;

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

  /// Routes merged events into a MicArray (as if each controller had
  /// heard its own onsets serially): array.ingest_event(mic_name, event)
  /// per merged event, in canonical order.
  void deliver_to(core::MicArray& array);

  /// Spawns the worker pool.  Topology (mics, handler) is frozen.
  void start();

  /// Producer hot path; safe from one thread per microphone.  Returns
  /// false when the block was dropped (kDropNewest) — drops under
  /// kDropOldest discard an older block and still return true.  Legal
  /// before start() (blocks queue up for the workers), illegal after
  /// finish(); submitting to a full ring under kBlock before start()
  /// spins until workers exist.  A mic id add_mic() never returned
  /// throws std::out_of_range.  `tags` (at most 8 kept) are the
  /// ground-truth emission ids overlapping the block; a drop mints a
  /// journal record citing them, a detection cites the matching one.
  using core::BlockSink::submit_block;
  bool submit_block(std::uint32_t mic, double start_s,
                    std::span<const double> samples,
                    std::span<const audio::EmissionTag> tags) override;

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
  const core::ToneDetector& detector() const noexcept { return detector_; }
  bool started() const noexcept { return started_; }
  bool finished() const noexcept { return finished_; }

 private:
  std::vector<double> acquire_buffer();

  StreamRuntimeConfig config_;
  core::ToneDetector detector_;
  // Configured block length in seconds: stamps ingest and detection
  // records at block end.
  double block_s_;
  std::vector<std::string> mic_names_;
  std::vector<std::unique_ptr<MicQueue>> queues_;
  std::vector<std::uint64_t> next_seq_;  // per mic, producer side
  OrderedMerge merge_;
  std::unique_ptr<RingBuffer<std::vector<double>>> free_buffers_;
  std::unique_ptr<WorkerPool> pool_;
  Handler handler_;
  std::vector<StreamEvent> events_;
  std::vector<StreamEvent> ready_scratch_;
  bool record_events_ = true;
  bool started_ = false;
  bool finished_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> dropped_oldest_{0};
  std::atomic<std::uint64_t> dropped_newest_{0};
  std::uint64_t delivered_ = 0;
  obs::Counter* submitted_counter_;
  obs::Counter* drops_oldest_counter_;
  obs::Counter* drops_newest_counter_;
};

}  // namespace mdn::rt
