// Ablation: cost of closed-set Goertzel evaluation vs a full FFT sweep,
// as a function of how many frequencies the listener watches.  The §6
// applications watch 3 frequencies, on the Goertzel side of a crossover
// near 4; the open-set telemetry of §5 watches dozens, where one FFT
// wins.
#include <benchmark/benchmark.h>

#include "audio/audio.h"
#include "bench_util.h"
#include "dsp/dsp.h"
#include "mdn/tone_detector.h"

namespace {

constexpr double kSampleRate = 48000.0;

mdn::audio::Waveform block() {
  mdn::audio::Rng rng(5);
  mdn::audio::ToneSpec spec;
  spec.frequency_hz = 700.0;
  spec.amplitude = 0.1;
  spec.duration_s = 0.05;
  auto w = mdn::audio::make_tone(spec, kSampleRate);
  w.mix_at(mdn::audio::make_white_noise(0.05, 0.01, kSampleRate, rng), 0);
  return w;
}

void BM_GoertzelSet(benchmark::State& state) {
  const auto w = block();
  const auto n_watch = static_cast<std::size_t>(state.range(0));
  std::vector<double> watch;
  for (std::size_t i = 0; i < n_watch; ++i) {
    watch.push_back(500.0 + 20.0 * static_cast<double>(i));
  }
  mdn::core::ToneDetector det({.sample_rate = kSampleRate});
  for (auto _ : state) {
    auto levels = det.set_levels(w.samples(), watch);
    benchmark::DoNotOptimize(levels);
  }
}
BENCHMARK(BM_GoertzelSet)->Arg(1)->Arg(3)->Arg(10)->Arg(30)->Arg(100);

void BM_FullFftDetect(benchmark::State& state) {
  const auto w = block();
  mdn::core::ToneDetector det({.sample_rate = kSampleRate});
  for (auto _ : state) {
    auto tones = det.detect(w.samples());
    benchmark::DoNotOptimize(tones);
  }
}
BENCHMARK(BM_FullFftDetect);

}  // namespace

int main(int argc, char** argv) {
  mdn::bench::print_header(
      "Ablation: Goertzel vs FFT",
      "closed-set Goertzel cost vs one full FFT sweep per block");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
