#include "mdn/mic_array.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/journal.h"

namespace mdn::core {

void MicArray::attach(MdnController& controller,
                      std::span<const double> watch_hz,
                      std::string mic_name) {
  ++mics_;
  auto name = std::make_shared<std::string>(std::move(mic_name));
  controller.watch_all(watch_hz, [this, name](const ToneEvent& ev) {
    ingest_event(*name, ev);
  });
}

void MicArray::ingest_event(const std::string& mic, const ToneEvent& event) {
  // Search recent merged events for the same tone.  Events arrive in
  // near time order, so scanning backwards terminates quickly.
  for (auto it = merged_.rbegin(); it != merged_.rend(); ++it) {
    if (event.time_s - it->time_s > dedup_window_s_ * 4.0) break;
    if (it->frequency_hz == event.frequency_hz &&
        std::abs(event.time_s - it->time_s) <= dedup_window_s_) {
      ++it->heard_by;
      it->amplitude = std::max(it->amplitude, event.amplitude);
      it->time_s = std::min(it->time_s, event.time_s);
      return;
    }
  }
  MergedEvent merged;
  merged.time_s = event.time_s;
  merged.frequency_hz = event.frequency_hz;
  merged.amplitude = event.amplitude;
  merged.first_mic = mic;
  merged.heard_by = 1;
  merged.cause = event.cause;
  obs::Journal& journal = obs::Journal::global();
  if (journal.enabled()) {
    // Fusion link: the merged event cites the first hearing's detection
    // record; later hearings fold into the same merged event silently.
    // It is stamped at that detection (block end), not at the block
    // start in event.time_s; there is no clock here, since controller
    // handlers and a StreamRuntime's event handler both feed this.
    obs::JournalRecord detection;
    obs::JournalRecord rec;
    rec.kind = obs::JournalKind::kMergedEvent;
    rec.cause = event.cause;
    rec.sim_ns = journal.find(event.cause, &detection)
                     ? detection.sim_ns
                     : net::from_seconds(event.time_s);
    rec.frequency_hz = event.frequency_hz;
    rec.value = event.amplitude;
    obs::set_journal_label(rec, mic);
    merged.cause = journal.append(rec);
  }
  merged_.push_back(merged);
  if (handler_) handler_(merged_.back());
}

std::size_t MicArray::events_heard_by_at_least(std::size_t k) const {
  return static_cast<std::size_t>(
      std::count_if(merged_.begin(), merged_.end(),
                    [k](const MergedEvent& e) { return e.heard_by >= k; }));
}

}  // namespace mdn::core
