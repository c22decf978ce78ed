// The acoustic flight recorder: a bounded, allocation-lean journal of
// causally linked events across every layer of the stack.
//
// The paper's controller *hears* management state and acts on it; the
// journal answers "why did this FlowMod happen?" and "which emitted
// tones did we actually hear, and how late?" (§3's emitted-vs-detected
// accounting).  Every hop mints one JournalRecord carrying the id of
// the record that caused it:
//
//   mp::PiSpeakerBridge       kToneEmitted    (ground truth: sim_ns, Hz)
//        │ EmissionTag rides the audio::AcousticChannel emission and the
//        │ recorded block's tags (MdnController / rt::AudioBlock)
//   MdnController / rt submit kBlockIngested  (a tagged block was captured;
//        │                    cause = first tagged emission, aux = seq)
//   rt::StreamRuntime         kBlockDropped   (backpressure ate a tone)
//   MdnController / rt poll   kToneDetected   (cause = the emission,
//                                              cause2 = the block ingest)
//   core::MicArray            kMergedEvent
//   core::MusicFsm            kFsmTransition  (cause2 = previous step)
//   HH / TE apps              kAppAction
//   sdn::ControlChannel       kFlowMod        (the actuation)
//   obs::Health               kHealthAlert    (SLO transition; cause =
//        the detection / emission / drop that tripped the rule)
//
// Journal::explain(action_id) walks cause/cause2 links back to the
// emitted tones, reconstructing e.g. the full §4 knock chain: 3 tones →
// 3 detections → 3 FSM transitions → 1 FlowMod.
//
// Disabled-cost rule (same contract as obs::Tracer): when the journal
// is disabled every instrumentation site reduces to a single relaxed
// atomic load and branch — no locks, no allocation, no record.  When
// enabled, append() writes into a preallocated ring under a mutex and
// evicts the oldest record on overflow, so steady state stays
// allocation-free either way (audited in tests/rt/test_rt_alloc.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace mdn::obs {

/// Id of a journal record, used as the causal link between layers.
/// 0 means "no cause" (a root event, or the journal was disabled).
using CauseId = std::uint64_t;

enum class JournalKind : std::uint8_t {
  kToneEmitted = 0,   ///< bridge scheduled a tone on the channel
  kBlockIngested = 1, ///< a tagged block entered the pipeline (aux = seq)
  kBlockDropped = 2,  ///< rt backpressure discarded a block (drop attribution)
  kToneDetected = 3,  ///< onset matched a watch (inline or rt merge)
  kMergedEvent = 4,   ///< MicArray fused hearings into one event
  kFsmTransition = 5, ///< MusicFsm edge taken (aux = from<<32 | to)
  kAppAction = 6,     ///< application-level decision (alert, balance, ...)
  kFlowMod = 7,       ///< ControlChannel actuation (aux = dpid)
  kHealthAlert = 8,   ///< obs::Health state transition (aux = rule<<32|from<<8|to)
};

/// Number of JournalKind values (for per-kind tables; the enum is dense).
inline constexpr std::size_t kJournalKindCount = 9;

/// Stable lowercase name ("tone_emitted", "flow_mod", ...).
std::string_view journal_kind_name(JournalKind kind) noexcept;

/// `mic` value for records with no microphone identity.
inline constexpr std::uint32_t kJournalNoMic = 0xffffffffu;

/// One journal entry.  Plain data with a fixed-size label so minting
/// never allocates; `value` and `aux` carry kind-specific payload
/// (amplitude / SPL / symbol, sequence number / dpid / state pair).
struct JournalRecord {
  std::uint64_t id = 0;   ///< assigned by append(); monotonically increasing
  CauseId cause = 0;      ///< primary upstream record (0 = root)
  CauseId cause2 = 0;     ///< secondary link (e.g. the previous FSM step)
  std::int64_t sim_ns = 0;
  double frequency_hz = 0.0;
  double value = 0.0;
  std::uint64_t aux = 0;
  std::uint32_t mic = kJournalNoMic;
  std::int32_t watch = -1;  ///< watch-list index, -1 when not applicable
  JournalKind kind = JournalKind::kToneEmitted;
  char label[23] = {};      ///< component tag, truncated, NUL-terminated
};

/// Copies (and truncates) `label` into the record's fixed buffer.
void set_journal_label(JournalRecord& record, std::string_view label) noexcept;

class Journal {
 public:
  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The process-wide journal every subsystem mints into by default.
  static Journal& global();

  /// Allocates the record ring (once) and starts recording.  Re-enabling
  /// with a different capacity reallocates; records already held are
  /// discarded.
  void enable(std::size_t capacity = 65536);

  /// Stops recording.  Held records stay readable until clear()/enable().
  void disable() noexcept;

  /// The single branch every instrumentation site checks first.
  bool enabled() const noexcept {
    // mo: hot-path flag check; enable/disable happen at quiescent points
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every record and restarts ids at 1; keeps capacity and the
  /// enabled flag.  Constant time: the old records become unreachable.
  void clear() noexcept;

  /// Mints a record: assigns the next id, stores a copy in the ring
  /// (evicting the oldest on overflow) and returns the id — 0 when the
  /// journal is disabled.  Thread-safe; no allocation.  The bounded
  /// critical section is the one allowlisted lock on the real-time path
  /// (scripts/mdn_lint_allowlist.txt).
  MDN_REALTIME CauseId append(const JournalRecord& record);

  /// Copies the record with `id` into `*out`; false when the id is 0,
  /// unknown, or already evicted.
  bool find(CauseId id, JournalRecord* out) const;

  /// Every resident record, ascending by id.
  std::vector<JournalRecord> snapshot() const;

  /// The causal chain of `action`: the record itself plus everything
  /// reachable through cause/cause2 links, ascending by (sim_ns, id).
  /// Evicted links terminate silently; empty when `action` is unknown.
  std::vector<JournalRecord> explain(CauseId action) const;

  /// Ids of the most recent `n` resident records of `kind`, oldest
  /// first.
  std::vector<CauseId> recent_of(JournalKind kind, std::size_t n) const;

  std::uint64_t appended() const;  ///< total minted, including evicted
  std::uint64_t evicted() const;
  std::size_t size() const;        ///< resident records
  std::size_t capacity() const;

 private:
  mutable common::Mutex mu_;
  std::atomic<bool> enabled_{false};
  // Ring: id -> slots_[(id-1) % cap].
  std::vector<JournalRecord> slots_ MDN_GUARDED_BY(mu_);
  std::uint64_t next_id_ MDN_GUARDED_BY(mu_) = 1;
};

/// The canonical journal order: by content (sim_ns, kind, mic, watch,
/// frequency, aux, value, label), never by id, so it does not depend on
/// the order in which threads minted the records.
bool journal_content_before(const JournalRecord& a, const JournalRecord& b);

/// Canonical journal.jsonl: one JSON object per record.  Records are
/// re-ordered by content (sim_ns, kind, mic, watch, ...), ids are
/// renumbered to line order and cause links rewritten, so two runs that
/// minted the same events in different thread interleavings produce
/// byte-identical output — the determinism contract checked in
/// tests/obs.
std::string to_journal_jsonl(const Journal& journal);
std::string to_journal_jsonl(std::vector<JournalRecord> records);

/// Human-readable explain(action) dump, one record per line, ascending
/// in sim time ("t=1.250s tone_emitted 980 Hz ... (#3)").
std::string explain_text(const Journal& journal, CauseId action);

}  // namespace mdn::obs
