// Shared output helpers for the figure-reproduction benches.
//
// Every bench prints (a) a header identifying the paper figure it
// regenerates, (b) the data series behind that figure as aligned columns
// (ready to plot), and (c) a PASS/FAIL style summary of the qualitative
// claim the paper makes about the figure.
//
// In addition, everything printed through these helpers is accumulated
// into a JSON report, written on exit as "<figure>.bench.json" unless
// the bench wrote it earlier under its own name with write_json().
// Either way MDN_BENCH_JSON=<path> writes it to <path> instead, and
// MDN_BENCH_JSON=0 (or "off", or empty) writes no file.  The report
// always carries the obs registry under the stable "metrics" key, so
// every BENCH run ships its per-stage counter/histogram breakdown and
// perf-trajectory tooling can diff runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace mdn::bench {

namespace detail {

struct Claim {
  std::string text;
  bool held = false;
  /// Worker/thread count the claim was measured at; -1 when the claim
  /// has no thread dimension (the default for single-threaded benches).
  int threads = -1;
};

struct Report {
  std::string name;  // sanitized first header, e.g. "figure_2b"
  std::vector<std::pair<std::string, double>> kv;
  std::vector<Claim> claims;
  bool written = false;
};

inline Report& report() {
  static Report r;
  return r;
}

inline std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
    } else if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace detail

/// Serialises the accumulated report (plus the global metrics registry
/// under "metrics") to `default_path`, or where MDN_BENCH_JSON says, and
/// prints the path written.  The report counts as written either way, so
/// the exit hook does not write it again.  Never throws; returns false
/// on I/O error.
inline bool write_json(const std::string& default_path) {
  detail::Report& r = detail::report();
  r.written = true;
  const char* env = std::getenv("MDN_BENCH_JSON");
  const std::string path = env != nullptr ? env : default_path;
  if (path.empty() || path == "0" || path == "off") return true;
  std::string out = "{\"bench\":\"" + obs::json_escape(r.name) + "\",";
  out += "\"claims\":[";
  for (std::size_t i = 0; i < r.claims.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"claim\":\"" + obs::json_escape(r.claims[i].text) +
           "\",\"reproduced\":" + (r.claims[i].held ? "true" : "false");
    if (r.claims[i].threads >= 0) {
      out += ",\"threads\":" + std::to_string(r.claims[i].threads);
    }
    out += "}";
  }
  out += "],\"kv\":{";
  for (std::size_t i = 0; i < r.kv.size(); ++i) {
    if (i > 0) out += ',';
    out.append("\"").append(obs::json_escape(r.kv[i].first)).append("\":");
    obs::append_number(out, r.kv[i].second);
  }
  // The stable key downstream tooling diffs: the whole obs registry.
  out += "},\"metrics\":" + obs::to_json(obs::Registry::global().snapshot());
  out += "}\n";
  if (!obs::write_file(path, out)) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

namespace detail {

inline void write_json_at_exit() {
  Report& r = report();
  if (r.written || r.name.empty()) return;
  write_json(r.name + ".bench.json");
}

}  // namespace detail

inline void print_header(const std::string& figure,
                         const std::string& description) {
  detail::Report& r = detail::report();
  if (r.name.empty()) {
    r.name = detail::sanitize(figure);
    // Construct the global registry before registering the hook: exit
    // teardown runs in reverse order, so the registry must come first
    // for the hook to snapshot it while still alive.
    (void)obs::Registry::global();
    std::atexit(&detail::write_json_at_exit);
  }
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void print_series(const std::string& title,
                         const std::vector<std::string>& columns,
                         const std::vector<std::vector<double>>& rows,
                         const char* fmt = "%14.4f") {
  std::printf("\n-- %s --\n", title.c_str());
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (const auto& row : rows) {
    for (double v : row) std::printf(fmt, v);
    std::printf("\n");
  }
}

inline void print_claim(const std::string& claim, bool held) {
  detail::report().claims.push_back({claim, held, -1});
  std::printf("[%s] %s\n", held ? "REPRODUCED" : "DIVERGED  ", claim.c_str());
}

/// Claim measured at a specific worker/thread count; the JSON entry
/// carries a "threads" field so trajectory tooling can diff scaling runs
/// point-by-point.
inline void print_claim_at(const std::string& claim, bool held,
                           int threads) {
  detail::report().claims.push_back({claim, held, threads});
  std::printf("[%s] [T=%d] %s\n", held ? "REPRODUCED" : "DIVERGED  ",
              threads, claim.c_str());
}

inline void print_kv(const std::string& key, double value,
                     const std::string& unit = "") {
  detail::report().kv.emplace_back(key, value);
  std::printf("  %-44s %12.4f %s\n", key.c_str(), value, unit.c_str());
}

/// Uniform throughput reporting for the fleet benches: emits the kv
/// "<what>_events_per_sec" from a raw count and wall-clock seconds, so
/// bench_compare.py can gate every bench's throughput under one
/// tolerance key shape.  Returns the computed rate (0 when wall_s <= 0).
inline double events_per_sec(const std::string& what, double events,
                             double wall_s) {
  const double rate = wall_s > 0.0 ? events / wall_s : 0.0;
  print_kv(what + "_events_per_sec", rate, "events/s");
  return rate;
}

}  // namespace mdn::bench
