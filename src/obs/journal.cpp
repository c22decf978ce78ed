#include "obs/journal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/export.h"

namespace mdn::obs {

std::string_view journal_kind_name(JournalKind kind) noexcept {
  switch (kind) {
    case JournalKind::kToneEmitted: return "tone_emitted";
    case JournalKind::kBlockIngested: return "block_ingested";
    case JournalKind::kBlockDropped: return "block_dropped";
    case JournalKind::kToneDetected: return "tone_detected";
    case JournalKind::kMergedEvent: return "merged_event";
    case JournalKind::kFsmTransition: return "fsm_transition";
    case JournalKind::kAppAction: return "app_action";
    case JournalKind::kFlowMod: return "flow_mod";
    case JournalKind::kHealthAlert: return "health_alert";
  }
  return "unknown";
}

void set_journal_label(JournalRecord& record,
                       std::string_view label) noexcept {
  const std::size_t n = std::min(label.size(), sizeof(record.label) - 1);
  std::memcpy(record.label, label.data(), n);
  record.label[n] = '\0';
}

Journal& Journal::global() {
  static Journal journal;
  return journal;
}

void Journal::enable(std::size_t capacity) {
  common::MutexLock lock(mu_);
  if (capacity == 0) capacity = 1;
  // At an unchanged capacity the old records stay in their slots, but
  // restarting ids makes them unreachable, as in clear().
  if (slots_.size() != capacity) slots_.assign(capacity, JournalRecord{});
  next_id_ = 1;
  // mo: flipped at quiescent setup points, never mid-append
  enabled_.store(true, std::memory_order_relaxed);
}

void Journal::disable() noexcept {
  // mo: flipped at quiescent teardown points, never mid-append
  enabled_.store(false, std::memory_order_relaxed);
}

void Journal::clear() noexcept {
  common::MutexLock lock(mu_);
  // Every reader stops below next_id_, and each id below it names a slot
  // written since this reset, so the old records need no wiping.
  next_id_ = 1;
}

CauseId Journal::append(const JournalRecord& record) {
  if (!enabled()) return 0;
  common::MutexLock lock(mu_);
  if (slots_.empty()) return 0;  // enabled() raced a disable+shrink
  const std::uint64_t id = next_id_++;
  JournalRecord& slot = slots_[(id - 1) % slots_.size()];
  slot = record;
  slot.id = id;
  return id;
}

bool Journal::find(CauseId id, JournalRecord* out) const {
  if (id == 0) return false;
  common::MutexLock lock(mu_);
  if (slots_.empty() || id >= next_id_) return false;
  const JournalRecord& slot = slots_[(id - 1) % slots_.size()];
  if (slot.id != id) return false;  // evicted
  *out = slot;
  return true;
}

std::vector<JournalRecord> Journal::snapshot() const {
  common::MutexLock lock(mu_);
  std::vector<JournalRecord> out;
  if (slots_.empty() || next_id_ == 1) return out;
  const std::uint64_t last = next_id_ - 1;
  const std::uint64_t count = std::min<std::uint64_t>(last, slots_.size());
  out.reserve(count);
  for (std::uint64_t id = last - count + 1; id <= last; ++id) {
    out.push_back(slots_[(id - 1) % slots_.size()]);
  }
  return out;
}

std::vector<JournalRecord> Journal::explain(CauseId action) const {
  std::vector<JournalRecord> chain;
  std::vector<CauseId> frontier{action};
  std::vector<CauseId> seen;
  constexpr std::size_t kMaxChain = 256;
  while (!frontier.empty() && chain.size() < kMaxChain) {
    const CauseId id = frontier.back();
    frontier.pop_back();
    if (id == 0) continue;
    if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
    seen.push_back(id);
    JournalRecord record;
    if (!find(id, &record)) continue;
    chain.push_back(record);
    frontier.push_back(record.cause);
    frontier.push_back(record.cause2);
  }
  std::sort(chain.begin(), chain.end(),
            [](const JournalRecord& a, const JournalRecord& b) {
              if (a.sim_ns != b.sim_ns) return a.sim_ns < b.sim_ns;
              return a.id < b.id;
            });
  return chain;
}

std::vector<CauseId> Journal::recent_of(JournalKind kind,
                                        std::size_t n) const {
  const auto records = snapshot();
  std::vector<CauseId> out;
  for (auto it = records.rbegin(); it != records.rend() && out.size() < n;
       ++it) {
    if (it->kind == kind) out.push_back(it->id);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::uint64_t Journal::appended() const {
  common::MutexLock lock(mu_);
  return next_id_ - 1;
}

std::uint64_t Journal::evicted() const {
  common::MutexLock lock(mu_);
  const std::uint64_t total = next_id_ - 1;
  return total > slots_.size() ? total - slots_.size() : 0;
}

std::size_t Journal::size() const {
  common::MutexLock lock(mu_);
  const std::uint64_t total = next_id_ - 1;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total, slots_.size()));
}

std::size_t Journal::capacity() const {
  common::MutexLock lock(mu_);
  return slots_.size();
}

std::string to_journal_jsonl(const Journal& journal) {
  return to_journal_jsonl(journal.snapshot());
}

// Kind rank follows the pipeline (emitted < dropped < detected < ... <
// flow_mod) so a cause sorts before its effect at equal sim time.
bool journal_content_before(const JournalRecord& a,
                            const JournalRecord& b) {
  if (a.sim_ns != b.sim_ns) return a.sim_ns < b.sim_ns;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.mic != b.mic) return a.mic < b.mic;
  if (a.watch != b.watch) return a.watch < b.watch;
  if (a.frequency_hz != b.frequency_hz) return a.frequency_hz < b.frequency_hz;
  if (a.aux != b.aux) return a.aux < b.aux;
  if (a.value != b.value) return a.value < b.value;
  return std::strcmp(a.label, b.label) < 0;
}

std::string to_journal_jsonl(std::vector<JournalRecord> records) {
  // Canonical order is by content, not by mint order: producer-side and
  // delivery-side mints interleave differently across worker counts, but
  // the set of records (and their causal links) is identical.
  std::stable_sort(records.begin(), records.end(), journal_content_before);
  // Renumber to line order and rewrite causal links through the map;
  // links to evicted (absent) records become 0.
  std::vector<std::pair<CauseId, std::uint64_t>> id_map;
  id_map.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    id_map.emplace_back(records[i].id, i + 1);
  }
  std::sort(id_map.begin(), id_map.end());
  const auto remap = [&id_map](CauseId id) -> std::uint64_t {
    const auto it = std::lower_bound(
        id_map.begin(), id_map.end(), std::make_pair(id, std::uint64_t{0}));
    return (it != id_map.end() && it->first == id) ? it->second : 0;
  };

  std::string out;
  out.reserve(records.size() * 160);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JournalRecord& r = records[i];
    out += "{\"id\":" + std::to_string(i + 1);
    out += ",\"kind\":\"";
    out += journal_kind_name(r.kind);
    out += "\",\"sim_ns\":" + std::to_string(r.sim_ns);
    out += ",\"cause\":" + std::to_string(remap(r.cause));
    out += ",\"cause2\":" + std::to_string(remap(r.cause2));
    out += ",\"mic\":" +
           std::to_string(r.mic == kJournalNoMic
                              ? -1
                              : static_cast<std::int64_t>(r.mic));
    out += ",\"watch\":" + std::to_string(r.watch);
    out += ",\"frequency_hz\":";
    append_number(out, r.frequency_hz);
    out += ",\"value\":";
    append_number(out, r.value);
    out += ",\"aux\":" + std::to_string(r.aux);
    out += ",\"label\":\"" + json_escape(r.label) + "\"}\n";
  }
  return out;
}

std::string explain_text(const Journal& journal, CauseId action) {
  std::string out;
  char buf[160];
  for (const JournalRecord& r : journal.explain(action)) {
    std::string detail;
    if (r.frequency_hz > 0.0) {
      detail += ' ';
      append_number(detail, r.frequency_hz);
      detail += " Hz";
    }
    if (r.mic != kJournalNoMic) detail += " mic=" + std::to_string(r.mic);
    if (r.watch >= 0) detail += " watch=" + std::to_string(r.watch);
    if (r.kind == JournalKind::kFsmTransition) {
      detail.append(" ")
          .append(std::to_string(r.aux >> 32))
          .append("->")
          .append(std::to_string(r.aux & 0xffffffffu));
    }
    if (r.kind == JournalKind::kFlowMod) {
      detail += " dpid=" + std::to_string(r.aux);
    }
    if (r.kind == JournalKind::kHealthAlert) {
      detail.append(" ")
          .append(std::to_string((r.aux >> 8) & 0xffu))
          .append("->")
          .append(std::to_string(r.aux & 0xffu));
    }
    std::string links;
    if (r.cause != 0) links += " <- #" + std::to_string(r.cause);
    if (r.cause2 != 0) links += ", #" + std::to_string(r.cause2);
    std::snprintf(buf, sizeof(buf), "  t=%9.4fs  %-14s %-13s%s  (#%llu%s)\n",
                  static_cast<double>(r.sim_ns) / 1e9,
                  std::string(journal_kind_name(r.kind)).c_str(), r.label,
                  detail.c_str(), static_cast<unsigned long long>(r.id),
                  links.c_str());
    out += buf;
  }
  return out;
}

}  // namespace mdn::obs
