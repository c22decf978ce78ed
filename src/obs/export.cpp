#include "obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/latency.h"

namespace mdn::obs {
namespace {

// The "kind" field and the fields after it (no braces) for one metric,
// shared by to_jsonl() and to_json().
void append_metric_fields(std::string& out, const MetricSnapshot& m) {
  switch (m.kind) {
    case Kind::kCounter:
      out += "\"kind\":\"counter\",\"value\":" + std::to_string(m.counter);
      break;
    case Kind::kGauge:
      out += "\"kind\":\"gauge\",\"value\":" + std::to_string(m.gauge) +
             ",\"max\":" + std::to_string(m.gauge_max);
      break;
    case Kind::kHistogram: {
      const HistogramSnapshot& h = m.hist;
      const std::pair<const char*, double> stats[] = {
          {",\"sum\":", h.sum},          {",\"min\":", h.min},
          {",\"max\":", h.max},          {",\"mean\":", h.mean()},
          {",\"p50\":", h.quantile(0.5)}, {",\"p90\":", h.quantile(0.9)},
          {",\"p99\":", h.quantile(0.99)}};
      out += "\"kind\":\"histogram\",\"count\":" + std::to_string(h.count);
      for (const auto& [key, value] : stats) {
        out += key;
        append_number(out, value);
      }
      // Only occupied buckets: [upper_bound, count] pairs.
      out += ",\"buckets\":[";
      bool first = true;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) continue;
        if (!first) out += ',';
        first = false;
        out += '[';
        append_number(out, h.bounds[i]);
        out.append(",").append(std::to_string(h.buckets[i])).append("]");
      }
      out += ']';
      break;
    }
  }
}

}  // namespace

void append_number(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
  } else if (std::isinf(v)) {
    out += v > 0.0 ? "+Inf" : "-Inf";
  } else {
    // Shortest round-trip is not the contract: general format at
    // precision 9 is printf's "%.9g", byte for byte.
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 9)
                        .ptr);
  }
}

PromLabels& PromLabels::add(std::string_view name, std::string_view value) {
  if (text_.empty()) {
    text_ += '{';
  } else {
    text_.back() = ',';  // reopen the block: replace its closing brace
  }
  text_ += name;
  text_ += "=\"";
  for (char c : value) {
    switch (c) {
      case '\\': text_ += "\\\\"; break;
      case '"': text_ += "\\\""; break;
      case '\n': text_ += "\\n"; break;
      default: text_ += c;
    }
  }
  text_ += "\"}";
  return *this;
}

void PromWriter::family(std::string_view name, std::string_view type) {
  family_.assign(name);
  out_ += "# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += type;
  out_ += '\n';
}

void PromWriter::histogram(std::string_view name,
                           const HistogramSnapshot& hist) {
  family(name, "histogram");
  // _bucket, _sum and _count are the series of this one family.
  const std::string base(name);
  family_ = base + "_bucket";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
    if (hist.buckets[i] == 0) continue;  // keep the dump compact
    cumulative += hist.buckets[i];
    sample(cumulative, PromLabels().add("le", hist.bounds[i]));
  }
  sample(hist.count, PromLabels().add("le", "+Inf"));
  family_ = base + "_sum";
  sample(hist.sum);
  family_ = base + "_count";
  sample(hist.count);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prometheus_name(std::string_view name) {
  std::string out = "mdn_";
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

std::string to_prometheus(const Snapshot& snapshot) {
  std::string out;
  PromWriter prom(out);
  for (const MetricSnapshot& m : snapshot) {
    const std::string name = prometheus_name(m.name);
    switch (m.kind) {
      case Kind::kCounter:
        prom.family(name, "counter");
        prom.sample(m.counter);
        break;
      case Kind::kGauge:
        prom.family(name, "gauge");
        prom.sample(m.gauge);
        prom.family(name + "_max", "gauge");
        prom.sample(m.gauge_max);
        break;
      case Kind::kHistogram:
        prom.histogram(name, m.hist);
        break;
    }
  }
  return out;
}

std::string to_jsonl(const Snapshot& snapshot) {
  std::string out;
  for (const MetricSnapshot& m : snapshot) {
    out += "{\"name\":\"" + json_escape(m.name) + "\",";
    append_metric_fields(out, m);
    out += "}\n";
  }
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{";
  bool first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (!first) out += ',';
    first = false;
    out.append("\"").append(json_escape(m.name)).append("\":{");
    append_metric_fields(out, m);
    out += '}';
  }
  out += "}";
  return out;
}

namespace {

/// trace_event timestamps are microseconds; keep sub-us precision.
std::string trace_us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

/// Starts the next event in a trace whose event list is being appended
/// to `out`: every event after the first is preceded by a comma.
std::string& next_event(std::string& out) {
  if (out.back() != '[') out += ',';
  return out;
}

void add_track_name(std::string& out, std::size_t tid,
                    std::string_view name) {
  next_event(out) += "{\"ph\":\"M\",\"pid\":0,\"tid\":" +
                     std::to_string(tid) +
                     ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                     json_escape(name) + "\"}}";
}

void add_tracer(std::string& trace, const Tracer& tracer) {
  const auto& tracks = tracer.track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    add_track_name(trace, i, tracks[i]);
  }
  for (const TraceEvent& ev : tracer.events()) {
    std::string& out = next_event(trace);
    out += "{\"ph\":\"";
    out += ev.phase;
    out += "\",\"pid\":0,\"tid\":" + std::to_string(ev.track) +
           ",\"name\":\"" + json_escape(ev.name) +
           "\",\"ts\":" + trace_us(ev.sim_ns);
    if (ev.phase == 'X') out += ",\"dur\":" + trace_us(ev.wall_dur_ns);
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    out += ",\"args\":{\"sim_ns\":" + std::to_string(ev.sim_ns) +
           ",\"wall_ns\":" + std::to_string(ev.wall_ns) + "}}";
  }
}

// One track per journal kind at base_tid + kind.  A record is an
// instant on its kind's track; each causal link is a flow arrow from
// the cause's instant to the effect's.
void add_journal(std::string& trace, const Journal& journal,
                 std::size_t base_tid) {
  const auto records = journal.snapshot();
  bool kind_present[kJournalKindCount] = {};
  for (const auto& r : records) {
    kind_present[static_cast<std::size_t>(r.kind)] = true;
  }
  for (std::size_t k = 0; k < kJournalKindCount; ++k) {
    if (!kind_present[k]) continue;
    add_track_name(trace, base_tid + k,
                   "journal/" + std::string(journal_kind_name(
                                    static_cast<JournalKind>(k))));
  }
  const auto record_tid = [&](const JournalRecord& r) {
    return std::to_string(base_tid + static_cast<std::size_t>(r.kind));
  };
  const auto flow = [&](const JournalRecord& from, const JournalRecord& to,
                        std::uint64_t flow_id) {
    next_event(trace) +=
        "{\"ph\":\"s\",\"pid\":0,\"tid\":" + record_tid(from) +
        ",\"name\":\"cause\",\"id\":" + std::to_string(flow_id) +
        ",\"ts\":" + trace_us(from.sim_ns) + "}," +
        "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":" + record_tid(to) +
        ",\"name\":\"cause\",\"id\":" + std::to_string(flow_id) +
        ",\"ts\":" + trace_us(to.sim_ns) + "}";
  };
  for (const auto& r : records) {
    std::string& out = next_event(trace);
    out += "{\"ph\":\"i\",\"pid\":0,\"tid\":" + record_tid(r) +
           ",\"name\":\"" + json_escape(journal_kind_name(r.kind)) +
           "\",\"ts\":" + trace_us(r.sim_ns) +
           ",\"s\":\"t\",\"args\":{\"journal_id\":" + std::to_string(r.id) +
           ",\"cause\":" + std::to_string(r.cause) + ",\"frequency_hz\":";
    append_number(out, r.frequency_hz);
    out += ",\"label\":\"" + json_escape(r.label) + "\"}}";
    JournalRecord cause;
    if (r.cause != 0 && journal.find(r.cause, &cause)) {
      flow(cause, r, r.id * 2);
    }
    if (r.cause2 != 0 && journal.find(r.cause2, &cause)) {
      flow(cause, r, r.id * 2 + 1);
    }
  }
}

// One track per latency stage at base_tid + stage; every breakdown hop
// is a complete span of sim-time duration on its stage's track.
void add_waterfall(std::string& trace, const LatencyProfiler& profiler,
                   std::size_t base_tid) {
  bool stage_present[kLatencyStageCount] = {};
  std::vector<Breakdown> breakdowns;
  breakdowns.reserve(profiler.actions().size());
  for (CauseId action : profiler.actions()) {
    breakdowns.push_back(profiler.breakdown(action));
    for (const BreakdownHop& hop : breakdowns.back().hops) {
      stage_present[static_cast<std::size_t>(hop.stage)] = true;
    }
  }
  for (std::size_t s = 0; s < kLatencyStageCount; ++s) {
    if (!stage_present[s]) continue;
    add_track_name(trace, base_tid + s,
                   "latency/" + std::string(latency_stage_name(
                                    static_cast<LatencyStage>(s))));
  }
  for (const Breakdown& b : breakdowns) {
    for (const BreakdownHop& hop : b.hops) {
      next_event(trace) +=
          "{\"ph\":\"X\",\"pid\":0,\"tid\":" +
          std::to_string(base_tid + static_cast<std::size_t>(hop.stage)) +
          ",\"name\":\"" + std::string(latency_stage_name(hop.stage)) +
          "\",\"ts\":" + trace_us(hop.from.sim_ns) +
          ",\"dur\":" + trace_us(hop.delta_ns) +
          ",\"args\":{\"action\":" + std::to_string(b.action) +
          ",\"from\":" + std::to_string(hop.from.id) +
          ",\"to\":" + std::to_string(hop.to.id) + "}}";
    }
  }
}

}  // namespace

std::string to_chrome_trace(const Tracer& tracer, const Journal* journal,
                            const LatencyProfiler* waterfall) {
  std::string trace = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  add_tracer(trace, tracer);
  std::size_t base_tid = tracer.track_names().size();
  if (journal != nullptr) {
    add_journal(trace, *journal, base_tid);
    base_tid += kJournalKindCount;
  }
  if (waterfall != nullptr) add_waterfall(trace, *waterfall, base_tid);
  trace += "]}";
  return trace;
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(content.data(),
          static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(f);
}

}  // namespace mdn::obs
