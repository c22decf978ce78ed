// Observability must be a pure observer: enabling tracing and poking the
// metrics registry may not change a single simulated event, so an
// instrumented run's ToneEvent log must be bit-identical to a plain run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audio/channel.h"
#include "audio/synth.h"
#include "mdn/controller.h"
#include "net/event_loop.h"
#include "obs/obs.h"

namespace mdn::core {
namespace {

constexpr double kSampleRate = 48000.0;

struct RunResult {
  std::vector<ToneEvent> log;
  std::uint64_t blocks = 0;
  std::uint64_t dispatched = 0;
  std::vector<obs::TraceEvent> trace;
  std::vector<std::string> tracks;
};

// One full listening experiment: three tones (two watched frequencies,
// one overlap) over a shared channel.  `traced` turns the loop's tracer
// on and snapshots/resets the registry mid-run — the worst-case
// instrumentation load.
RunResult run_scenario(bool traced) {
  net::EventLoop loop;
  if (traced) loop.tracer().enable();

  audio::AcousticChannel channel(kSampleRate);
  const auto source = channel.add_source("speaker", 1.0);

  MdnController::Config cfg;
  cfg.detector.sample_rate = kSampleRate;
  MdnController ctl(loop, channel, cfg);
  ctl.watch(700.0, nullptr);
  ctl.watch(900.0, nullptr);
  ctl.start();

  auto tone = [](double freq, double dur) {
    audio::ToneSpec spec;
    spec.frequency_hz = freq;
    spec.amplitude = 0.1;
    spec.duration_s = dur;
    return audio::make_tone(spec, kSampleRate);
  };
  channel.emit(source, tone(700.0, 0.08), 0.15);
  channel.emit(source, tone(900.0, 0.30), 0.40);
  channel.emit(source, tone(700.0, 0.08), 0.80);

  if (traced) {
    // Exercise registry reads while the simulation is mid-flight.
    loop.schedule_at(net::from_seconds(0.5), [] {
      (void)obs::Registry::global().snapshot();
    });
  }
  loop.schedule_at(net::from_seconds(1.2), [&] { ctl.stop(); });
  loop.run();

  RunResult r;
  r.log = ctl.event_log();
  r.blocks = ctl.blocks_processed();
  r.dispatched = loop.dispatched();
  r.trace = loop.tracer().events();
  r.tracks = loop.tracer().track_names();
  return r;
}

TEST(ObsDeterminism, TracedRunIsBitIdenticalToPlainRun) {
  const RunResult plain = run_scenario(false);
  const RunResult traced = run_scenario(true);

  EXPECT_GT(plain.log.size(), 0u);
  EXPECT_EQ(plain.blocks, traced.blocks);
  ASSERT_EQ(plain.log.size(), traced.log.size());
  for (std::size_t i = 0; i < plain.log.size(); ++i) {
    // Bit-identical, not approximately equal: the instrumented run must
    // compute the exact same samples in the exact same order.
    EXPECT_EQ(plain.log[i].time_s, traced.log[i].time_s) << i;
    EXPECT_EQ(plain.log[i].frequency_hz, traced.log[i].frequency_hz) << i;
    EXPECT_EQ(plain.log[i].amplitude, traced.log[i].amplitude) << i;
  }
}

TEST(ObsDeterminism, RepeatedPlainRunsAreBitIdentical) {
  const RunResult a = run_scenario(false);
  const RunResult b = run_scenario(false);
  ASSERT_EQ(a.log.size(), b.log.size());
  EXPECT_EQ(a.dispatched, b.dispatched);
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].time_s, b.log[i].time_s);
    EXPECT_EQ(a.log[i].amplitude, b.log[i].amplitude);
  }
}

TEST(ObsDeterminism, InstrumentsObserveTheRun) {
  obs::Registry::global().reset();
  const RunResult r = run_scenario(true);
  const auto snap = obs::Registry::global().snapshot();
  auto find = [&](const std::string& name) -> const obs::MetricSnapshot* {
    for (const auto& m : snap) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  const auto* blocks = find("mdn/controller/blocks");
  ASSERT_NE(blocks, nullptr);
  EXPECT_EQ(blocks->counter, r.blocks);
  const auto* fft = find("dsp/fft/wall_ns");
  ASSERT_NE(fft, nullptr);
  EXPECT_GE(fft->hist.count, r.blocks);
  const auto* dispatched = find("net/loop/events_dispatched");
  ASSERT_NE(dispatched, nullptr);
  EXPECT_EQ(dispatched->counter, r.dispatched);
}

TEST(ObsDeterminism, EachStageTimingFeedsItsHistogramAndSpan) {
  obs::Registry::global().reset();
  const RunResult r = run_scenario(true);
  EXPECT_EQ(obs::Registry::global()
                .histogram("net/loop/callback_wall_ns")
                .count(),
            r.dispatched);
  // One "event" span per dispatch on the loop's track, and one record,
  // detect and match span per tick, in that order, on the controller's.
  std::uint64_t events = 0;
  std::vector<std::string> stages;
  for (const obs::TraceEvent& ev : r.trace) {
    if (ev.phase != 'X') continue;
    if (r.tracks[ev.track] == "net/loop" && ev.name == "event") ++events;
    if (r.tracks[ev.track] == "mdn/controller") stages.push_back(ev.name);
  }
  EXPECT_EQ(events, r.dispatched);
  ASSERT_EQ(stages.size(), 3 * r.blocks);
  for (std::size_t i = 0; i < stages.size(); i += 3) {
    EXPECT_EQ(stages[i], "controller/record") << i;
    EXPECT_EQ(stages[i + 1], "controller/detect") << i;
    EXPECT_EQ(stages[i + 2], "controller/match") << i;
  }
}

}  // namespace
}  // namespace mdn::core
