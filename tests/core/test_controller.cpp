#include "mdn/controller.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "audio/synth.h"
#include "obs/journal.h"
#include "obs/trace.h"

namespace mdn::core {
namespace {

constexpr double kSampleRate = 48000.0;

audio::Waveform tone(double freq, double amp, double dur) {
  audio::ToneSpec spec;
  spec.frequency_hz = freq;
  spec.amplitude = amp;
  spec.duration_s = dur;
  return audio::make_tone(spec, kSampleRate);
}

struct ControllerFixture : ::testing::Test {
  ControllerFixture() : channel(kSampleRate) {
    source = channel.add_source("speaker", 1.0);
  }

  MdnController::Config config() const {
    MdnController::Config cfg;
    cfg.detector.sample_rate = kSampleRate;
    return cfg;
  }

  net::EventLoop loop;
  audio::AcousticChannel channel;
  audio::SourceId source;
};

TEST_F(ControllerFixture, HearsScheduledTone) {
  MdnController ctl(loop, channel, config());
  std::vector<ToneEvent> events;
  ctl.watch(700.0, [&](const ToneEvent& ev) { events.push_back(ev); });
  ctl.start();

  channel.emit(source, tone(700.0, 0.1, 0.08), 0.2);
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();

  ASSERT_EQ(events.size(), 1u);
  EXPECT_NEAR(events[0].time_s, 0.2, 0.06);
  EXPECT_DOUBLE_EQ(events[0].frequency_hz, 700.0);
  EXPECT_GT(events[0].amplitude, 0.05);
}

TEST_F(ControllerFixture, LongToneYieldsSingleOnset) {
  MdnController ctl(loop, channel, config());
  int onsets = 0;
  ctl.watch(900.0, [&](const ToneEvent&) { ++onsets; });
  ctl.start();
  channel.emit(source, tone(900.0, 0.1, 0.5), 0.1);  // 10 hops long
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(onsets, 1);
}

TEST_F(ControllerFixture, SeparatedBurstsYieldSeparateOnsets) {
  MdnController ctl(loop, channel, config());
  int onsets = 0;
  ctl.watch(900.0, [&](const ToneEvent&) { ++onsets; });
  ctl.start();
  channel.emit(source, tone(900.0, 0.1, 0.08), 0.1);
  channel.emit(source, tone(900.0, 0.1, 0.08), 0.5);
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(onsets, 2);
}

TEST_F(ControllerFixture, UnwatchedFrequencyIgnoredByHandlersButLogged) {
  MdnController ctl(loop, channel, config());
  int fired = 0;
  ctl.watch(700.0, [&](const ToneEvent&) { ++fired; });
  ctl.start();
  channel.emit(source, tone(1500.0, 0.1, 0.08), 0.1);
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(ctl.event_log().empty());  // log covers watched tones only
}

TEST_F(ControllerFixture, WatchAllBindsWholeSet) {
  MdnController ctl(loop, channel, config());
  std::vector<double> heard;
  const std::vector<double> set{500.0, 520.0, 540.0};
  ctl.watch_all(set, [&](const ToneEvent& ev) {
    heard.push_back(ev.frequency_hz);
  });
  ctl.start();
  channel.emit(source, tone(520.0, 0.1, 0.08), 0.1);
  channel.emit(source, tone(540.0, 0.1, 0.08), 0.4);
  loop.schedule_at(net::from_seconds(0.8), [&] { ctl.stop(); });
  loop.run();
  ASSERT_EQ(heard.size(), 2u);
  EXPECT_DOUBLE_EQ(heard[0], 520.0);
  EXPECT_DOUBLE_EQ(heard[1], 540.0);
}

TEST_F(ControllerFixture, StopHaltsListening) {
  MdnController ctl(loop, channel, config());
  int fired = 0;
  ctl.watch(700.0, [&](const ToneEvent&) { ++fired; });
  ctl.start();
  loop.schedule_at(net::from_seconds(0.2), [&] { ctl.stop(); });
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.5);  // after stop
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(ctl.running());
}

TEST_F(ControllerFixture, KeepRecordingCapturesAudio) {
  auto cfg = config();
  cfg.keep_recording = true;
  MdnController ctl(loop, channel, cfg);
  ctl.start();
  channel.emit(source, tone(700.0, 0.2, 0.1), 0.1);
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();
  // ~0.5 s of audio captured.
  EXPECT_NEAR(ctl.recording().duration_s(), 0.5, 0.1);
  EXPECT_GT(ctl.recording().peak(), 0.1);
}

TEST_F(ControllerFixture, BlocksProcessedCounts) {
  MdnController ctl(loop, channel, config());
  ctl.start();
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();
  // 50 ms hop over 0.5 s -> ~10 blocks.
  EXPECT_NEAR(static_cast<double>(ctl.blocks_processed()), 10.0, 2.0);
}

TEST_F(ControllerFixture, RestartAfterStopKeepsOneTickSeries) {
  // stop() then start() inside one hop: the series scheduled by the first
  // start() has not fired since, so it resumes and no second series
  // doubles the blocks.
  MdnController ctl(loop, channel, config());
  ctl.start();
  loop.run_until(net::from_seconds(0.12));
  ctl.stop();
  ctl.start();
  loop.run_until(net::from_seconds(1.0));
  EXPECT_EQ(ctl.blocks_processed(), 20u);  // one per 50 ms hop
}

TEST_F(ControllerFixture, EventLogAccumulates) {
  MdnController ctl(loop, channel, config());
  ctl.watch(700.0, nullptr);
  ctl.start();
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.1);
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.4);
  loop.schedule_at(net::from_seconds(0.8), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(ctl.event_log().size(), 2u);
}

TEST_F(ControllerFixture, MicNoiseFloorDoesNotTriggerWatches) {
  auto cfg = config();
  cfg.microphone.noise_floor_rms = 5e-4;
  MdnController ctl(loop, channel, cfg);
  int fired = 0;
  ctl.watch(700.0, [&](const ToneEvent&) { ++fired; });
  ctl.start();
  loop.schedule_at(net::from_seconds(1.0), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(fired, 0);
}

TEST_F(ControllerFixture, StartThrowsWhenHealthHasNoEstimatorForTheMic) {
  obs::Health health;
  auto cfg = config();
  cfg.health = &health;
  cfg.mic = 0;
  MdnController ctl(loop, channel, cfg);
  EXPECT_THROW(ctl.start(), std::logic_error);
  EXPECT_FALSE(ctl.running());

  health.add_mic("m");
  ctl.start();
  loop.schedule_at(net::from_seconds(0.3), [&] { ctl.stop(); });
  loop.run();
  EXPECT_EQ(health.estimator(0).blocks(), ctl.blocks_processed());
}

// A frozen wall clock no steady clock reads: steady time is never
// negative.
std::int64_t frozen_clock() { return -7; }

// The loop tracer's injected clock times the spans publish() measures
// itself; record and detect, measured in capture() (which may run on a
// fleet pool thread), keep their wall_now_ns() readings.
TEST_F(ControllerFixture, InjectedClockTimesPublishSpansOnly) {
  loop.tracer().enable();
  loop.tracer().set_wall_clock(&frozen_clock);
  MdnController ctl(loop, channel, config());
  ctl.watch(700.0, nullptr);
  ctl.start();
  channel.emit(source, tone(700.0, 0.1, 0.08), 0.2);
  loop.schedule_at(net::from_seconds(0.5), [&] { ctl.stop(); });
  loop.run();

  std::map<std::string, std::uint64_t> spans;
  for (const obs::TraceEvent& ev : loop.tracer().events()) {
    if (ev.phase != 'X' || ev.name.rfind("controller/", 0) != 0) continue;
    ++spans[ev.name];
    if (ev.name == "controller/match") {
      EXPECT_EQ(ev.wall_ns, -7);
      EXPECT_EQ(ev.wall_dur_ns, 0);
    } else {
      EXPECT_GE(ev.wall_ns, 0) << ev.name;
      EXPECT_GE(ev.wall_dur_ns, 0) << ev.name;
    }
  }
  EXPECT_GT(ctl.blocks_processed(), 0u);
  for (const char* name :
       {"controller/record", "controller/detect", "controller/match"}) {
    EXPECT_EQ(spans[name], ctl.blocks_processed()) << name;
  }
}

// Two rooms, each a channel and a controller, hearing tagged tones with
// the journal on.  `split` drives both controllers from one hop that
// captures them on two threads, joins, then publishes them in order —
// the shape core::Fleet gives its rooms — instead of their own ticks.
struct TwoRoomRun {
  std::vector<ToneEvent> log[2];
  std::uint64_t blocks[2] = {0, 0};
  std::string journal;
};

TwoRoomRun run_two_rooms(bool split) {
  obs::Journal& journal = obs::Journal::global();
  journal.enable(1u << 12);
  journal.clear();
  net::EventLoop loop;
  audio::AcousticChannel room0(kSampleRate), room1(kSampleRate);
  audio::AcousticChannel* rooms[2] = {&room0, &room1};
  MdnController::Config cfg;
  cfg.detector.sample_rate = kSampleRate;
  cfg.mic = 0;
  MdnController ctl0(loop, room0, cfg);
  cfg.mic = 1;
  MdnController ctl1(loop, room1, cfg);
  MdnController* ctls[2] = {&ctl0, &ctl1};
  for (MdnController* ctl : ctls) {
    ctl->watch_all(std::vector{700.0, 900.0}, nullptr);
  }

  // Each room plays three tagged (frequency, start) tones of its own;
  // room 1's first starts on a block edge.
  const double plays[2][3][2] = {
      {{700.0, 0.12}, {900.0, 0.31}, {700.0, 0.62}},
      {{900.0, 0.05}, {700.0, 0.33}, {900.0, 0.71}}};
  for (std::uint32_t r = 0; r < 2; ++r) {
    const audio::SourceId src = rooms[r]->add_source("speaker", 1.0);
    for (const auto& play : plays[r]) {
      obs::JournalRecord rec;
      rec.kind = obs::JournalKind::kToneEmitted;
      rec.sim_ns = net::from_seconds(play[1]);
      rec.frequency_hz = play[0];
      rec.mic = r;
      const obs::CauseId id = journal.append(rec);
      rooms[r]->emit(src, tone(play[0], 0.1, 0.08), play[1], {id, play[0]});
    }
  }

  if (split) {
    for (MdnController* ctl : ctls) {
      ctl->start(MdnController::Clock::kExternal);
    }
    const net::SimTime hop = net::from_seconds(cfg.hop_s);
    loop.schedule_periodic(hop, hop, [&] {
      if (!ctl0.running()) return false;
      const net::SimTime now = loop.now();
      std::thread t0([&] { ctl0.capture(now); });
      std::thread t1([&] { ctl1.capture(now); });
      t0.join();
      t1.join();
      ctl0.publish();
      ctl1.publish();
      return true;
    });
  } else {
    for (MdnController* ctl : ctls) ctl->start();
  }
  loop.schedule_at(net::from_seconds(1.0), [&] {
    for (MdnController* ctl : ctls) ctl->stop();
  });
  loop.run();

  TwoRoomRun run;
  for (int r = 0; r < 2; ++r) {
    run.log[r] = ctls[r]->event_log();
    run.blocks[r] = ctls[r]->blocks_processed();
  }
  run.journal = obs::to_journal_jsonl(journal);
  journal.disable();
  return run;
}

TEST(ControllerSplit, CaptureOnThreadsThenPublishMatchesOwnTicks) {
  const TwoRoomRun own = run_two_rooms(false);
  const TwoRoomRun split = run_two_rooms(true);
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE("room " + std::to_string(r));
    EXPECT_EQ(own.blocks[r], 19u);
    EXPECT_EQ(split.blocks[r], own.blocks[r]);
    ASSERT_EQ(own.log[r].size(), 3u) << "each room hears its three tones";
    ASSERT_EQ(split.log[r].size(), own.log[r].size());
    for (std::size_t i = 0; i < own.log[r].size(); ++i) {
      EXPECT_EQ(split.log[r][i].time_s, own.log[r][i].time_s) << i;
      EXPECT_EQ(split.log[r][i].frequency_hz, own.log[r][i].frequency_hz) << i;
      EXPECT_EQ(split.log[r][i].amplitude, own.log[r][i].amplitude) << i;
      EXPECT_EQ(split.log[r][i].cause, own.log[r][i].cause) << i;
      EXPECT_NE(own.log[r][i].cause, 0u) << "detections are journaled";
    }
  }
  EXPECT_EQ(split.journal, own.journal);
  EXPECT_NE(own.journal.find("\"kind\":\"block_ingested\""),
            std::string::npos);
}

}  // namespace
}  // namespace mdn::core
