// Worker-pool scaling for the streaming detection runtime (mdn::rt).
//
// The paper's controller decodes one microphone inline (§3: one FFT per
// ~50 ms hop).  This bench feeds the same pre-recorded block schedule to
// (a) a single-threaded reference loop and (b) the StreamRuntime at
// several worker counts, then reports:
//
//   * equivalence — the merged event stream must be *identical* to the
//     serial stream (every field, every event, every worker count), and
//   * throughput — wall-clock speedup over the serial loop per worker
//     count, carried in the .bench.json claims under a "threads" key.
//
// --smoke: CI mode — reduced workload, exit non-zero when any claim
// diverges.  The ≥2× @ 4 workers claim needs ≥ 4 hardware threads and is
// skipped (with a note) on smaller machines; equivalence is always
// enforced.
//
// --journal: run with the flight-recorder journal enabled and every
// tone block tagged with a ground-truth emission record.  Provenance
// must be pure metadata — the merged stream stays identical to the
// serial reference (StreamEvent identity excludes the cause and ingest
// ids), so the equivalence claims must hold in this mode too.  The
// LatencyProfiler then attributes every detection chain to capture and
// ring-wait stages, and the per-stage histograms must come out
// byte-identical at every worker count.
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "dsp/simd.h"
#include "obs/journal.h"
#include "obs/latency.h"
#include "rt/rt.h"

namespace {

constexpr double kSampleRate = 48000.0;
constexpr std::size_t kBlockSize = 2400;  // 50 ms hop
constexpr std::size_t kMics = 8;
constexpr double kHopS = 0.05;

using mdn::rt::StreamEvent;

// Each mic cycles tone bursts of "its" frequency: 3 hops on, 5 off,
// phase-shifted per mic so onsets land on every mic and collide on
// equal hops across mics.
bool tone_on(std::uint32_t mic, std::uint64_t hop) {
  return (hop + 2 * mic) % 8 < 3;
}

std::vector<double> make_block(std::uint32_t mic, std::uint64_t hop,
                               const std::vector<double>& watch) {
  std::vector<double> v(kBlockSize, 0.0);
  if (!tone_on(mic, hop)) return v;
  const double freq = watch[mic % watch.size()];
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    v[i] = 0.2 * std::sin(2.0 * std::numbers::pi * freq *
                          static_cast<double>(i) / kSampleRate);
  }
  return v;
}

mdn::rt::StreamRuntimeConfig runtime_config(std::size_t workers) {
  mdn::rt::StreamRuntimeConfig cfg;
  cfg.workers = workers;
  cfg.ring_capacity = 64;
  cfg.detector.sample_rate = kSampleRate;
  cfg.detector.block_size = kBlockSize;
  cfg.watch_hz = {800.0, 820.0, 840.0, 860.0};
  return cfg;
}

/// The single-threaded paper path: detect + match every block in
/// (hop, mic) order, exactly like MdnController::tick does inline.
std::vector<StreamEvent> serial_run(
    const std::vector<std::vector<std::vector<double>>>& blocks,
    const mdn::rt::StreamRuntimeConfig& cfg, double* wall_ms) {
  const mdn::core::ToneDetector detector(cfg.detector);
  // Plan build + first-execute costs (milliseconds) land here, not in
  // the timed loop — mirroring StreamRuntime::start()'s worker warm-up
  // so serial and parallel walls measure the same steady state.
  detector.warm_up();
  std::vector<std::vector<char>> active(
      kMics, std::vector<char>(cfg.watch_hz.size(), 0));
  std::vector<StreamEvent> events;
  std::vector<mdn::core::DetectedTone> tones;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t hop = 0; hop < blocks.size(); ++hop) {
    for (std::uint32_t mic = 0; mic < kMics; ++mic) {
      detector.detect_into(blocks[hop][mic], tones);
      for (std::size_t w = 0; w < cfg.watch_hz.size(); ++w) {
        double best_amp = 0.0;
        bool found = false;
        for (const auto& t : tones) {
          if (std::abs(t.frequency_hz - cfg.watch_hz[w]) <=
              detector.config().match_tolerance_hz) {
            found = true;
            best_amp = std::max(best_amp, t.amplitude);
          }
        }
        if (found && active[mic][w] == 0) {
          events.push_back({hop, mic, static_cast<std::uint32_t>(w),
                            static_cast<double>(hop) * kHopS, cfg.watch_hz[w],
                            best_amp});
        }
        active[mic][w] = found ? 1 : 0;
      }
    }
  }
  *wall_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  return events;
}

std::vector<StreamEvent> runtime_run(
    const std::vector<std::vector<std::vector<double>>>& blocks,
    std::size_t workers, bool journal_on, std::uint64_t* tagged,
    double* wall_ms) {
  mdn::rt::StreamRuntime runtime(runtime_config(workers));
  for (std::size_t m = 0; m < kMics; ++m) {
    runtime.add_mic("mic-" + std::to_string(m));
  }
  runtime.start();
  mdn::obs::Journal& journal = mdn::obs::Journal::global();
  const auto& watch = runtime.config().watch_hz;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t hop = 0; hop < blocks.size(); ++hop) {
    for (std::uint32_t mic = 0; mic < kMics; ++mic) {
      std::array<mdn::audio::EmissionTag, 1> tags;
      std::size_t ntags = 0;
      if (journal_on && tone_on(mic, hop)) {
        // Ground-truth emission record at the tone's start: detections
        // cite it, so the profiler can attribute capture vs ring wait.
        mdn::obs::JournalRecord rec;
        rec.kind = mdn::obs::JournalKind::kToneEmitted;
        rec.sim_ns = static_cast<std::int64_t>(hop) * 50'000'000;
        rec.frequency_hz = watch[mic % watch.size()];
        rec.mic = mic;
        mdn::obs::set_journal_label(rec, "bench_tone");
        tags[0] = {journal.append(rec), rec.frequency_hz};
        ntags = 1;
        if (tagged != nullptr) ++*tagged;
      }
      runtime.submit_block(
          mic, static_cast<double>(hop) * kHopS, blocks[hop][mic],
          std::span<const mdn::audio::EmissionTag>(tags.data(), ntags));
    }
  }
  runtime.finish();
  *wall_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  return runtime.events();
}

bool identical(const std::vector<StreamEvent>& a,
               const std::vector<StreamEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

int run(bool smoke, bool journal_on) {
  const std::uint64_t hops = smoke ? 60 : 240;
  const unsigned hw = std::thread::hardware_concurrency();

  if (journal_on) {
    mdn::obs::Journal::global().enable(std::size_t{1} << 16);
  }

  mdn::bench::print_header(
      "rt scaling",
      "parallel streaming runtime vs the single-threaded controller path");
  std::printf("mics=%zu hops=%llu block=%zu hardware_threads=%u%s%s\n",
              kMics, static_cast<unsigned long long>(hops), kBlockSize, hw,
              smoke ? " (smoke)" : "", journal_on ? " (journal on)" : "");
  std::printf("simd dispatch: %s\n",
              mdn::dsp::simd::isa_name(mdn::dsp::simd::active_isa()));
  // Machine capability rides in the report so bench_compare.py can tell
  // "claim skipped on a small machine" apart from "claim vanished".
  mdn::bench::print_kv("hardware_threads", static_cast<double>(hw), "");

  // Pre-record every block so producers cost the same in every run.
  const auto cfg = runtime_config(1);
  std::vector<std::vector<std::vector<double>>> blocks(hops);
  for (std::uint64_t hop = 0; hop < hops; ++hop) {
    blocks[hop].reserve(kMics);
    for (std::uint32_t mic = 0; mic < kMics; ++mic) {
      blocks[hop].push_back(make_block(mic, hop, cfg.watch_hz));
    }
  }

  double serial_ms = 0.0;
  const auto reference = serial_run(blocks, cfg, &serial_ms);
  mdn::bench::print_kv("events (serial reference)",
                       static_cast<double>(reference.size()));
  mdn::bench::print_kv("serial wall", serial_ms, "ms");

  const std::vector<std::size_t> worker_counts{1, 2, 4, 7};
  std::vector<std::vector<double>> rows;
  std::uint64_t tagged = 0;
  std::string stage_prom_ref;
  bool stages_identical = true;
  mdn::obs::LatencyProfiler profiler(mdn::obs::Journal::global());
  for (std::size_t workers : worker_counts) {
    if (journal_on) mdn::obs::Journal::global().clear();
    double wall_ms = 0.0;
    tagged = 0;
    const auto events =
        runtime_run(blocks, workers, journal_on, &tagged, &wall_ms);
    const bool equal = identical(events, reference);
    if (journal_on) {
      // Re-attribute from scratch per worker count: the per-stage
      // families must be byte-identical regardless of parallelism.
      profiler.clear();
      profiler.profile(mdn::obs::JournalKind::kToneDetected);
      const std::string prom = profiler.to_prometheus();
      if (stage_prom_ref.empty()) stage_prom_ref = prom;
      stages_identical = stages_identical && prom == stage_prom_ref;
    }
    const double speedup = wall_ms > 0.0 ? serial_ms / wall_ms : 0.0;
    rows.push_back({static_cast<double>(workers), wall_ms, speedup,
                    equal ? 1.0 : 0.0});
    mdn::bench::print_kv(
        "runtime wall @ " + std::to_string(workers) + " workers", wall_ms,
        "ms");
    mdn::bench::print_claim_at(
        "merged event stream identical to the serial controller path",
        equal, static_cast<int>(workers));
  }
  mdn::bench::print_series(
      "scaling", {"workers", "wall_ms", "speedup", "identical"}, rows);

  // Throughput claim: meaningful only with real parallel hardware.  The
  // merge order being deterministic, equivalence above already covers
  // correctness on any machine.
  double speedup4 = 0.0;
  for (const auto& row : rows) {
    if (row[0] == 4.0) speedup4 = row[2];
  }
  mdn::bench::print_kv("speedup @ 4 workers", speedup4, "x");
  if (hw >= 4) {
    mdn::bench::print_claim_at(
        "4-worker runtime at least 2x faster than the serial path",
        speedup4 >= 2.0, 4);
  } else {
    std::printf(
        "note: %u hardware thread(s) < 4 — speedup claim skipped "
        "(measured %.2fx)\n",
        hw, speedup4);
  }

  if (journal_on) {
    mdn::obs::Journal& journal = mdn::obs::Journal::global();
    mdn::bench::print_kv("journal records (last run)",
                         static_cast<double>(journal.size()));
    mdn::bench::print_kv("tagged tone blocks",
                         static_cast<double>(tagged));
    mdn::bench::print_claim(
        "journal minted emission + ingest records per tagged block and "
        "one detection per merged event",
        journal.size() == reference.size() + 2 * tagged);

    // Stage attribution: every detection chain decomposes into capture
    // (tone start -> block end, exactly one 50 ms hop here) plus the
    // ring wait, and the histograms are parallelism-independent.
    const auto capture =
        profiler.stage_stats(mdn::obs::LatencyStage::kCapture);
    const auto ring_wait =
        profiler.stage_stats(mdn::obs::LatencyStage::kRingWait);
    mdn::bench::print_kv("stage capture p99", capture.p99_ns / 1e6, "ms");
    mdn::bench::print_kv("stage ring_wait p99", ring_wait.p99_ns / 1e6,
                         "ms");
    mdn::bench::print_claim(
        "stage attribution covers capture and ring wait for every "
        "merged event",
        capture.count == reference.size() &&
            ring_wait.count == reference.size());
    mdn::bench::print_claim(
        "per-stage latency histograms byte-identical at every worker "
        "count",
        stages_identical);
    journal.disable();
    journal.clear();
  }

  mdn::bench::write_json("rt_scaling.bench.json");

  int diverged = 0;
  for (const auto& claim : mdn::bench::detail::report().claims) {
    if (!claim.held) ++diverged;
  }
  return diverged;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool journal_on = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      journal_on = true;
    } else {
      std::fprintf(stderr,
                   "bench_rt_scaling: unknown argument '%s'\n"
                   "usage: bench_rt_scaling [--smoke] [--journal]\n",
                   argv[i]);
      return 2;
    }
  }
  return run(smoke, journal_on);
}
