// Deterministic event-stream merge for the streaming detection runtime.
//
// Shard workers finish blocks in wall-clock order, which depends on
// thread scheduling; the runtime's contract is that the *merged* onset
// stream is nevertheless bit-identical to a single-threaded run.  The
// merge restores determinism with per-source watermarks: every onset is
// keyed by (block sequence number, microphone id, watch index), a worker
// advances its microphones' watermarks as it completes blocks, and an
// event is released only once every still-open source has moved past its
// block — at which point no earlier-keyed event can ever arrive, so
// sorting the released prefix yields the canonical order.
//
// This is the runtime's *cold* path (onsets are sparse next to audio
// blocks), so a plain mutex guards the pending buffer; the audio rings
// stay lock-free.  drain_ready() performs no heap allocation once the
// pending buffer and the caller's output vector are warm.
#pragma once

#include <cstdint>
#include <vector>

#include "common/mutex.h"

namespace mdn::rt {

/// One tone onset with its provenance in the block stream.  The triple
/// (seq, mic, watch) is the canonical total order; the trailing doubles
/// carry the detection payload (block start time in seconds, matched
/// watch frequency, strongest amplitude within tolerance).
struct StreamEvent {
  std::uint64_t seq = 0;       ///< per-microphone block index
  std::uint32_t mic = 0;       ///< microphone id (registration order)
  std::uint32_t watch = 0;     ///< index into the runtime's watch list
  double time_s = 0.0;
  double frequency_hz = 0.0;
  double amplitude = 0.0;
  /// Provenance: the obs::Journal id backing this event (the emitted
  /// tone while in flight, rewritten to the detection record at
  /// delivery).  Metadata, not identity — excluded from operator== so
  /// serial/parallel equivalence holds with the journal enabled.
  std::uint64_t cause = 0;
  /// Provenance: the kBlockIngested journal id of the block this onset
  /// was detected in (0 when the journal is off or the block was
  /// untagged).  Metadata, not identity, like `cause`.
  std::uint64_t ingest = 0;
};

inline bool stream_event_before(const StreamEvent& a,
                                const StreamEvent& b) noexcept {
  if (a.seq != b.seq) return a.seq < b.seq;
  if (a.mic != b.mic) return a.mic < b.mic;
  return a.watch < b.watch;
}

inline bool operator==(const StreamEvent& a, const StreamEvent& b) noexcept {
  return a.seq == b.seq && a.mic == b.mic && a.watch == b.watch &&
         a.time_s == b.time_s && a.frequency_hz == b.frequency_hz &&
         a.amplitude == b.amplitude;
}

class OrderedMerge {
 public:
  OrderedMerge() = default;

  /// Registers one event source (a microphone); returns its id.  Sources
  /// are added while the runtime is being wired, before workers start.
  std::uint32_t add_source();

  /// Buffers `event` for ordered release.  Workers must push all events
  /// of a block *before* advancing past it.
  void push(const StreamEvent& event);

  /// Declares every block of `source` with seq < `through_seq` complete.
  /// Monotonic: calls that would move the watermark backwards are
  /// ignored, and sequence gaps (dropped blocks) are skipped over.
  void advance(std::uint32_t source, std::uint64_t through_seq);

  /// Declares `source` finished: it no longer gates the watermark.
  void close(std::uint32_t source);

  /// Appends every releasable event to `out` in canonical order and
  /// returns how many were released.  Successive drains never emit an
  /// event twice and never emit out of order across calls.
  std::size_t drain_ready(std::vector<StreamEvent>& out);

  /// Smallest block sequence number still gated by an open source
  /// (UINT64_MAX once every source is closed).
  std::uint64_t watermark() const;

  /// Buffered events not yet released.
  std::size_t pending() const;

 private:
  std::uint64_t watermark_locked() const MDN_REQUIRES(mu_);

  mutable common::Mutex mu_;
  std::vector<StreamEvent> pending_ MDN_GUARDED_BY(mu_);
  // Per source, exclusive.
  std::vector<std::uint64_t> done_through_ MDN_GUARDED_BY(mu_);
  std::vector<bool> closed_ MDN_GUARDED_BY(mu_);
};

}  // namespace mdn::rt
