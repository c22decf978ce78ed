// MicArray × StreamRuntime integration: 8 microphones share one
// acoustic channel; the serial path (each MdnController detecting
// inline) and the runtime path (the same microphones recorded per hop
// and submitted to the runtime, sharded workers, ordered merge feeding
// MicArray::ingest_event) must produce *identical* MergedEvent streams —
// same order, same doubles, same first_mic attributions — at every
// worker count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "audio/audio.h"
#include "mdn/frequency_plan.h"
#include "mdn/mic_array.h"
#include "rt/stream_runtime.h"

namespace mdn::rt {
namespace {

constexpr double kSampleRate = 48000.0;
constexpr std::size_t kMics = 8;

core::MdnController::Config mic_config(std::size_t m) {
  core::MdnController::Config cfg;
  cfg.detector.sample_rate = kSampleRate;
  cfg.detector.min_amplitude = 0.02;  // tones fade out within ~5 m
  cfg.microphone.position = {2.0 * static_cast<double>(m), 0.0};
  return cfg;
}

/// One shared emission schedule: bursts near different microphones, two
/// of them simultaneous, so merged events span single- and multi-mic
/// hearings in the same run.
void emit_schedule(audio::AcousticChannel& channel,
                   const std::vector<audio::SourceId>& sources,
                   const core::FrequencyPlan& plan,
                   const std::vector<core::DeviceId>& devices) {
  auto play = [&](std::size_t src, std::size_t dev, double at_s) {
    audio::ToneSpec spec;
    spec.frequency_hz = plan.frequency(devices[dev], 0);
    spec.duration_s = 0.08;
    spec.amplitude = audio::spl_to_amplitude(88.0);
    channel.emit(sources[src], audio::make_tone(spec, kSampleRate), at_s);
  };
  play(0, 0, 0.20);
  play(3, 1, 0.45);
  play(1, 2, 0.45);  // simultaneous with the burst above, different rack
  play(2, 3, 0.70);
  play(0, 0, 0.95);  // rack 0 repeats, past the dedup window
}

struct Scenario {
  Scenario() : channel(kSampleRate), plan({.base_hz = 800.0,
                                           .spacing_hz = 20.0}) {
    for (int d = 0; d < 4; ++d) {
      devices.push_back(plan.add_device("rack-" + std::to_string(d), 1));
      sources.push_back(channel.add_source_at(
          "spk-" + std::to_string(d), {4.0 * d + 1.0, 0.5}));
      watch.push_back(plan.frequency(devices.back(), 0));
    }
  }

  void run(double until_s) {
    loop.schedule_at(net::from_seconds(until_s), [this] {
      for (auto& c : controllers) c->stop();
    });
    loop.run();
  }

  net::EventLoop loop;
  audio::AcousticChannel channel;
  core::FrequencyPlan plan;
  std::vector<core::DeviceId> devices;
  std::vector<audio::SourceId> sources;
  std::vector<double> watch;
  std::vector<std::unique_ptr<core::MdnController>> controllers;
};

std::vector<core::MicArray::MergedEvent> serial_run() {
  Scenario s;
  core::MicArray array;
  for (std::size_t m = 0; m < kMics; ++m) {
    s.controllers.push_back(std::make_unique<core::MdnController>(
        s.loop, s.channel, mic_config(m)));
    array.attach(*s.controllers.back(), s.watch, "mic-" + std::to_string(m));
  }
  for (auto& c : s.controllers) c->start();
  emit_schedule(s.channel, s.sources, s.plan, s.devices);
  s.run(1.4);
  return array.events();
}

std::vector<core::MicArray::MergedEvent> runtime_run(std::size_t workers) {
  Scenario s;
  StreamRuntimeConfig rcfg;
  rcfg.workers = workers;
  rcfg.detector = mic_config(0).detector;
  rcfg.watch_hz = s.watch;
  StreamRuntime runtime(rcfg);

  core::MicArray array;
  std::vector<audio::Microphone> mics;
  for (std::size_t m = 0; m < kMics; ++m) {
    runtime.add_mic("mic-" + std::to_string(m));
    mics.emplace_back(mic_config(m).microphone, kSampleRate);
  }
  runtime.on_event([&](const StreamEvent& e) {
    array.ingest_event(runtime.mic_name(e.mic),
                       core::ToneEvent{e.time_s, e.frequency_hz,
                                       e.amplitude, e.cause});
  });
  runtime.start();
  emit_schedule(s.channel, s.sources, s.plan, s.devices);

  // The controllers' hop series, run by hand: every hop records each
  // microphone's last hop_s off the channel and submits it, until the
  // same stop time as the serial run.
  const double hop_s = mic_config(0).hop_s;
  bool listening = true;
  s.loop.schedule_periodic(
      net::from_seconds(hop_s), net::from_seconds(hop_s), [&] {
        if (!listening) return false;
        const double start_s = net::to_seconds(s.loop.now()) - hop_s;
        for (std::uint32_t m = 0; m < kMics; ++m) {
          const audio::Waveform block =
              mics[m].record(s.channel, start_s, hop_s);
          runtime.submit_block(m, start_s, block.samples());
        }
        return true;
      });
  s.loop.schedule_at(net::from_seconds(1.4), [&] { listening = false; });
  s.loop.run();
  runtime.finish();
  return array.events();
}

void expect_identical(const std::vector<core::MicArray::MergedEvent>& got,
                      const std::vector<core::MicArray::MergedEvent>& want,
                      std::size_t workers) {
  ASSERT_EQ(got.size(), want.size()) << "workers=" << workers;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("workers=" + std::to_string(workers) + " event " +
                 std::to_string(i));
    EXPECT_DOUBLE_EQ(got[i].time_s, want[i].time_s);
    EXPECT_DOUBLE_EQ(got[i].frequency_hz, want[i].frequency_hz);
    EXPECT_DOUBLE_EQ(got[i].amplitude, want[i].amplitude);
    EXPECT_EQ(got[i].first_mic, want[i].first_mic);
    EXPECT_EQ(got[i].heard_by, want[i].heard_by);
  }
}

TEST(RtMicArray, EightMicsFourWorkersMatchSerialExactly) {
  const auto serial = serial_run();
  ASSERT_GE(serial.size(), 4u);  // every burst produced a merged event
  expect_identical(runtime_run(4), serial, 4);
}

TEST(RtMicArray, WorkerCountNeverChangesTheMergedStream) {
  const auto serial = serial_run();
  ASSERT_FALSE(serial.empty());
  for (std::size_t workers : {1u, 2u, 8u}) {
    expect_identical(runtime_run(workers), serial, workers);
  }
}

TEST(RtMicArray, SharedBurstHeardByMultipleMicsOnce) {
  const auto serial = serial_run();
  const auto merged = runtime_run(4);
  ASSERT_EQ(merged.size(), serial.size());
  // At least one burst reached more than one microphone and was fused
  // into a single merged event rather than duplicated per mic.
  std::size_t multi = 0;
  for (const auto& e : merged) multi += e.heard_by > 1 ? 1 : 0;
  EXPECT_GE(multi, 1u);
}

}  // namespace
}  // namespace mdn::rt
