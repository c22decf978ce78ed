// Fig 2b: "CDF of FFT processing time" — wall-clock latency of the tone
// detector's FFT over ~50 ms microphone samples.  The paper reports
// ~90% of samples processed in 0.35 ms or less.
//
// This is the one figure that is a genuine compute measurement, so it is
// driven by google-benchmark and additionally prints the measured CDF.
// The latency CDF is not bench-local bookkeeping: ToneDetector::detect
// records every call into the "dsp/fft/wall_ns" histogram of the obs
// registry, and this bench renders the CDF straight from that histogram.
//
// The bench also replays the same blocks through an *unplanned* replica
// of the seed detector (per-call sin/cos twiddles, promote-to-complex,
// per-call buffers) into "dsp/fft_unplanned/wall_ns", so every run
// reports the planned-vs-unplanned p50/p90 side by side and claims the
// plan layer's >= 2x speedup next to the paper's 0.35 ms claim.
//
// It dumps the registry as Prometheus text and the per-call spans as
// Chrome trace_event JSON (chrome://tracing / Perfetto).  Pass --smoke
// for CI: fewer samples, gbenchmark skipped, exit code 1 when any claim
// diverges.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "audio/audio.h"
#include "bench_util.h"
#include "dsp/dsp.h"
#include "mdn/tone_detector.h"
#include "obs/obs.h"

namespace {

constexpr double kSampleRate = 48000.0;

mdn::audio::Waveform sample_block(std::uint64_t seed) {
  // A realistic 50 ms microphone block: one tone over room noise.
  mdn::audio::Rng rng(seed);
  mdn::audio::ToneSpec spec;
  spec.frequency_hz = 500.0 + 20.0 * static_cast<double>(seed % 100);
  spec.amplitude = 0.1;
  spec.duration_s = 0.05;
  auto block = mdn::audio::make_tone(spec, kSampleRate);
  block.mix_at(
      mdn::audio::make_white_noise(0.05, 0.01, kSampleRate, rng), 0);
  return block;
}

// The seed's per-call FFT pipeline, kept here as the bench baseline:
// allocate, promote to complex, transform with per-call sin/cos twiddle
// computation (fft_radix2_inplace), then single-sided amplitudes and
// peak picking — what ToneDetector::detect cost before the plan layer.
std::vector<mdn::core::DetectedTone> detect_unplanned(
    std::span<const double> block, std::span<const double> window,
    const mdn::core::ToneDetectorConfig& cfg, const mdn::obs::Stage& stage) {
  const auto timed = stage.scope();
  const std::size_t n = std::min(block.size(), cfg.fft_size);
  std::vector<mdn::dsp::Complex> data(cfg.fft_size);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = mdn::dsp::Complex{block[i] * window[i], 0.0};
  }
  mdn::dsp::fft_radix2_inplace(data, false);

  const double gain =
      mdn::dsp::window_coherent_gain(window.first(n));
  std::vector<double> spectrum(cfg.fft_size / 2 + 1);
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    const double scale = (k == 0 || k == spectrum.size() - 1) ? 1.0 : 2.0;
    spectrum[k] = scale * std::abs(data[k]) / gain;
  }
  const auto peaks = mdn::dsp::find_peaks(spectrum, cfg.sample_rate,
                                          cfg.fft_size, cfg.min_amplitude);
  std::vector<mdn::core::DetectedTone> tones;
  tones.reserve(peaks.size());
  for (const auto& p : peaks) {
    tones.push_back({p.frequency_hz, p.amplitude});
  }
  return tones;
}

void BM_FftRadix2_4096(benchmark::State& state) {
  // Seed path: per-call twiddle computation inside the transform.
  std::vector<mdn::dsp::Complex> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {std::sin(0.01 * static_cast<double>(i)), 0.0};
  }
  for (auto _ : state) {
    auto copy = data;
    mdn::dsp::fft_radix2_inplace(copy, false);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_FftRadix2_4096);

void BM_FftPlanned_4096(benchmark::State& state) {
  // Planned path: cached twiddles + bit-reversal table, no allocation.
  const auto plan = mdn::dsp::PlanCache::global().complex_plan(4096);
  std::vector<mdn::dsp::Complex> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {std::sin(0.01 * static_cast<double>(i)), 0.0};
  }
  std::vector<mdn::dsp::Complex> work(4096);
  for (auto _ : state) {
    std::copy(data.begin(), data.end(), work.begin());
    plan->execute(work);
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_FftPlanned_4096);

void BM_RealFftPlanned_4096(benchmark::State& state) {
  // The detector's actual transform: packed-real planned FFT.
  const auto plan = mdn::dsp::PlanCache::global().real_plan(4096);
  std::vector<double> input(4096);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = std::sin(0.01 * static_cast<double>(i));
  }
  std::vector<mdn::dsp::Complex> bins(plan->bins());
  std::vector<mdn::dsp::Complex> scratch(plan->scratch_size());
  for (auto _ : state) {
    plan->execute(input, bins, scratch);
    benchmark::DoNotOptimize(bins.data());
  }
}
BENCHMARK(BM_RealFftPlanned_4096);

void BM_DetectorBlock50ms(benchmark::State& state) {
  mdn::core::ToneDetectorConfig cfg;
  cfg.sample_rate = kSampleRate;
  mdn::core::ToneDetector detector(cfg);
  const auto block = sample_block(7);
  std::vector<mdn::core::DetectedTone> tones;
  for (auto _ : state) {
    detector.detect_into(block.samples(), tones);
    benchmark::DoNotOptimize(tones.data());
  }
}
BENCHMARK(BM_DetectorBlock50ms);

int run_cdf(int samples) {
  mdn::bench::print_header(
      "Figure 2b", "CDF of FFT processing time over ~50 ms samples");

  mdn::core::ToneDetectorConfig cfg;
  cfg.sample_rate = kSampleRate;
  mdn::core::ToneDetector detector(cfg);
  const auto window =
      mdn::dsp::make_window(cfg.window, cfg.fft_size);

  // Plan build + this thread's scratch growth happen before timing;
  // warm_up() records nothing, so the histogram holds steady state only.
  detector.warm_up();
  // Drop whatever the google-benchmark warm-up recorded so the histogram
  // holds exactly this measurement run.
  auto& registry = mdn::obs::Registry::global();
  registry.reset();
  auto& unplanned_hist = registry.histogram("dsp/fft_unplanned/wall_ns");
  const mdn::obs::Stage unplanned(&unplanned_hist);

  // Per-call spans on a standalone tracer; the pseudo-timeline places
  // block i at its microphone time (i hops of 50 ms).  The detector
  // itself feeds "dsp/fft/wall_ns", so this stage is span-only.
  mdn::obs::Tracer tracer;
  tracer.enable();
  const mdn::obs::Stage detect(nullptr, &tracer, "detect",
                               tracer.track("dsp/detector"));

  constexpr std::int64_t kHopNs = 50'000'000;
  std::vector<mdn::core::DetectedTone> tones;
  for (int i = 0; i < samples; ++i) {
    const auto block = sample_block(static_cast<std::uint64_t>(i));
    {
      const auto timed = detect.scope(i * kHopNs);
      detector.detect_into(block.samples(), tones);
      benchmark::DoNotOptimize(tones.data());
    }
    // Same block through the seed-replica path for the trajectory claim.
    auto baseline = detect_unplanned(block.samples(), window, cfg,
                                     unplanned);
    benchmark::DoNotOptimize(baseline);
  }

  // Render the CDF from the registry histogram the detector fed.
  const auto hist = registry.histogram("dsp/fft/wall_ns").snapshot();
  const auto base = unplanned_hist.snapshot();
  constexpr double kMs = 1e6;  // ns per ms
  std::printf("\n%14s %14s\n", "latency (ms)", "CDF");
  for (const auto& [x, f] : hist.curve(20)) {
    std::printf("%14.4f %14.3f\n", x / kMs, f);
  }
  const double p50 = hist.quantile(0.5);
  const double p90 = hist.quantile(0.9);
  const double base_p50 = base.quantile(0.5);
  const double base_p90 = base.quantile(0.9);
  mdn::bench::print_kv("samples", static_cast<double>(hist.count), "");
  mdn::bench::print_kv("p50", p50 / kMs, "ms");
  mdn::bench::print_kv("p90", p90 / kMs, "ms");
  mdn::bench::print_kv("p99", hist.quantile(0.99) / kMs, "ms");
  mdn::bench::print_kv("fraction <= 0.35 ms", hist.cdf(0.35 * kMs), "");
  mdn::bench::print_kv("unplanned p50", base_p50 / kMs, "ms");
  mdn::bench::print_kv("unplanned p90", base_p90 / kMs, "ms");
  mdn::bench::print_kv("p50 speedup", base_p50 / p50, "x");
  mdn::bench::print_kv("p90 speedup", base_p90 / p90, "x");

  mdn::bench::print_claim(
      "~90% of ~50 ms samples processed in 0.35 ms or less",
      hist.cdf(0.35 * kMs) >= 0.9);
  mdn::bench::print_claim(
      "planned FFT p50 at least 2x faster than the unplanned seed path",
      base_p50 >= 2.0 * p50 && p50 > 0.0);

  // Observability artifacts next to the figure output.
  const std::string prom = "bench_fig2b_fft_latency.prom";
  const std::string trace = "bench_fig2b_fft_latency.trace.json";
  if (mdn::obs::write_file(prom,
                           mdn::obs::to_prometheus(registry.snapshot()))) {
    std::printf("\nwrote %s\n", prom.c_str());
  }
  if (mdn::obs::write_file(trace, mdn::obs::to_chrome_trace(tracer))) {
    std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                trace.c_str());
  }
  mdn::bench::write_json("bench_fig2b_fft_latency.bench.json");

  int diverged = 0;
  for (const auto& claim : mdn::bench::detail::report().claims) {
    if (!claim.held) ++diverged;
  }
  return diverged;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI mode — skip the gbenchmark timing loops, run a reduced
  // CDF sample count and fail the process when a claim diverges.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (!smoke) {
    benchmark::RunSpecifiedBenchmarks();
  }
  const int diverged = run_cdf(smoke ? 400 : 2000);
  return smoke && diverged > 0 ? 1 : 0;
}
