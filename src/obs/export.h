// Exporters: one writer per format for every obs view.
//
//   * append_number()   — the number speller every exporter shares;
//   * PromWriter        — the Prometheus text-format writer behind every
//                         to_prometheus() (registry Snapshot, Scoreboard,
//                         Health, LatencyProfiler, Timeline);
//   * to_jsonl()        — one JSON object per metric per line;
//   * to_json()         — a single JSON object keyed by metric name (the
//                         stable "metrics" payload of bench JSON files);
//   * to_chrome_trace() — Chrome trace_event JSON, loadable in
//                         chrome://tracing or https://ui.perfetto.dev.
//                         Timestamps are simulated microseconds; span
//                         durations are wall-clock, so the viewer shows
//                         where wall time went along the sim timeline.
#pragma once

#include <charconv>
#include <concepts>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mdn::obs {

class LatencyProfiler;

/// Appends `v` as printf's "%.9g" would, except that non-finite values
/// are spelled "NaN", "+Inf" and "-Inf" as the Prometheus text format
/// requires (never printf's "nan"/"inf").
void append_number(std::string& out, double v);

/// Appends an integer exactly, never through a double.
template <std::integral T>
void append_number(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// A Prometheus label block, `{name="value",...}`, built once and shared
/// by every sample that carries it.  Values are escaped per the text
/// format (backslash -> \\, double quote -> \", line feed -> \n; all
/// else passes through, so hostile names round-trip); numeric values go
/// through append_number().
class PromLabels {
 public:
  PromLabels& add(std::string_view name, std::string_view value);
  template <typename T>
    requires std::is_arithmetic_v<T>
  PromLabels& add(std::string_view name, T value) {
    std::string spelled;
    append_number(spelled, value);
    return add(name, spelled);
  }

  /// The block, or "" when no label was added.
  const std::string& text() const noexcept { return text_; }

 private:
  std::string text_;
};

/// Prometheus text exposition writer, appending to `out` in place.
/// family() writes a family's TYPE line and makes it the current family;
/// sample() writes to the current family only, so each family's lines
/// form one group.  Open each family once.
class PromWriter {
 public:
  explicit PromWriter(std::string& out) noexcept : out_(out) {}

  /// Opens family `name` of `type` ("counter", "gauge", "histogram").
  void family(std::string_view name, std::string_view type);

  /// A whole family: one sample per label block, `value(i)` for
  /// `labels[i]`.
  template <typename ValueAt>
  void family(std::string_view name, std::string_view type,
              std::span<const PromLabels> labels, ValueAt&& value) {
    family(name, type);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      sample(value(i), labels[i]);
    }
  }

  /// One sample of the current family: `<family><labels> <value>`.
  template <typename T>
  void sample(T value, const PromLabels& labels = {}) {
    out_ += family_;
    out_ += labels.text();
    out_ += ' ';
    append_number(out_, value);
    out_ += '\n';
  }

  /// A histogram family: cumulative `_bucket{le=...}` samples for the
  /// occupied buckets, the `+Inf` bucket, `_sum` and `_count`.
  void histogram(std::string_view name, const HistogramSnapshot& hist);

 private:
  std::string& out_;
  std::string family_;
};

std::string to_prometheus(const Snapshot& snapshot);
std::string to_jsonl(const Snapshot& snapshot);
std::string to_json(const Snapshot& snapshot);

/// Chrome trace of the tracer's tracks and events, plus optional layers
/// on tracks numbered after the tracer's:
///   * `journal`: every record becomes an instant event on a per-kind
///     "journal/<kind>" track, and each cause/cause2 link becomes a flow
///     arrow ('s'/'f' pair) from the cause record to its effect — the §4
///     knock chain renders as arrows from the emitted tones through the
///     FSM to the FlowMod;
///   * `waterfall`: one complete span per breakdown hop of every action
///     the profiler profiled, on per-stage "latency/<stage>" tracks,
///     with sim-time durations — where each action's sim time went.
std::string to_chrome_trace(const Tracer& tracer,
                            const Journal* journal = nullptr,
                            const LatencyProfiler* waterfall = nullptr);

/// Escapes a string for inclusion inside JSON quotes.
std::string json_escape(std::string_view s);

/// Maps a hierarchical metric name to a Prometheus-legal one
/// ("net/switch/s1/queue_depth" -> "mdn_net_switch_s1_queue_depth").
/// Names must not be empty and must not start with a digit; both are
/// normalised so the output always satisfies [a-zA-Z_][a-zA-Z0-9_]*.
std::string prometheus_name(std::string_view name);

/// Writes `content` to `path`; returns false (without throwing) on I/O
/// failure so instrumented binaries never die on a read-only directory.
bool write_file(const std::string& path, std::string_view content);

}  // namespace mdn::obs
