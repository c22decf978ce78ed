// StreamRuntime behaviour: serial equivalence across worker counts,
// drop-policy semantics, backpressure accounting, lifecycle guards and
// incremental delivery.  The equivalence tests are also part of the CI
// ThreadSanitizer workload.
#include "rt/stream_runtime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "net/sim_time.h"
#include "obs/journal.h"

namespace mdn::rt {
namespace {

constexpr double kSampleRate = 48000.0;
constexpr std::size_t kBlockSize = 2400;  // 50 ms at 48 kHz
constexpr double kHopS = 0.05;

std::vector<double> tone_block(double freq, double amplitude = 0.2) {
  std::vector<double> v(kBlockSize);
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    v[i] = amplitude * std::sin(2.0 * std::numbers::pi * freq *
                                static_cast<double>(i) / kSampleRate);
  }
  return v;
}

std::vector<double> silent_block() {
  return std::vector<double>(kBlockSize, 0.0);
}

StreamRuntimeConfig base_config(std::size_t workers) {
  StreamRuntimeConfig cfg;
  cfg.workers = workers;
  cfg.ring_capacity = 64;
  cfg.detector.sample_rate = kSampleRate;
  cfg.detector.block_size = kBlockSize;
  cfg.watch_hz = {800.0, 820.0, 840.0, 860.0};
  return cfg;
}

/// The per-mic block schedule of a deterministic scenario: mic m plays
/// its own watch frequency during hops [2m, 2m+3), everyone is silent
/// otherwise, and mic 0 additionally fires a late burst — so onsets land
/// on different mics at different and at equal hops.
std::vector<double> scenario_block(std::uint32_t mic, std::uint64_t hop,
                                   const std::vector<double>& watch) {
  const double freq = watch[mic % watch.size()];
  const bool on = (hop >= 2 * mic && hop < 2 * mic + 3) ||
                  (mic == 0 && hop >= 12 && hop < 14);
  return on ? tone_block(freq) : silent_block();
}

/// Single-threaded reference: identical detector, identical matching
/// arithmetic, blocks visited in canonical (hop, mic, watch) order.
std::vector<StreamEvent> serial_reference(const StreamRuntimeConfig& cfg,
                                          std::size_t mics,
                                          std::uint64_t hops) {
  const core::ToneDetector detector(cfg.detector);
  std::vector<std::vector<char>> active(
      mics, std::vector<char>(cfg.watch_hz.size(), 0));
  std::vector<StreamEvent> events;
  std::vector<core::DetectedTone> tones;
  for (std::uint64_t hop = 0; hop < hops; ++hop) {
    for (std::uint32_t mic = 0; mic < mics; ++mic) {
      const auto block = scenario_block(mic, hop, cfg.watch_hz);
      detector.detect_into(block, tones);
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
  return events;
}

/// Runs the scenario through a runtime.  With `queue_before_start` every
/// block is queued before the workers exist (finish() starts them), so
/// each worker visit finds a full ring to drain.
std::vector<StreamEvent> run_runtime(const StreamRuntimeConfig& cfg,
                                     std::size_t mics, std::uint64_t hops,
                                     bool queue_before_start = false) {
  StreamRuntime runtime(cfg);
  for (std::size_t m = 0; m < mics; ++m) {
    runtime.add_mic("mic-" + std::to_string(m));
  }
  if (!queue_before_start) runtime.start();
  for (std::uint64_t hop = 0; hop < hops; ++hop) {
    for (std::uint32_t mic = 0; mic < mics; ++mic) {
      const auto block = scenario_block(mic, hop, cfg.watch_hz);
      runtime.submit_block(mic, static_cast<double>(hop) * kHopS, block);
    }
  }
  runtime.finish();
  return runtime.events();
}

TEST(StreamRuntime, MergedStreamMatchesSerialAtEveryWorkerCount) {
  const std::size_t mics = 4;
  const std::uint64_t hops = 16;
  const auto reference = serial_reference(base_config(1), mics, hops);
  ASSERT_FALSE(reference.empty());
  for (std::size_t workers : {1u, 2u, 4u, 7u}) {
    const auto events = run_runtime(base_config(workers), mics, hops);
    ASSERT_EQ(events.size(), reference.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(events[i] == reference[i])
          << "workers=" << workers << " event " << i;
    }
  }
}

TEST(StreamRuntime, RepeatedRunsAreBitIdentical) {
  const auto a = run_runtime(base_config(4), 3, 12);
  const auto b = run_runtime(base_config(4), 3, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]);
}

TEST(StreamRuntime, BacklogMatchesSerialAtEveryWorkerCount) {
  // Every block is queued before start(), so each worker finds a full
  // backlog on every mic it owns from its first visit.  The merged
  // stream must still equal the serial reference exactly, at several
  // worker counts.
  const std::size_t mics = 4;
  const std::uint64_t hops = 16;
  const auto reference = serial_reference(base_config(1), mics, hops);
  ASSERT_FALSE(reference.empty());
  for (std::size_t workers : {1u, 2u, 4u, 7u}) {
    const auto cfg = base_config(workers);
    ASSERT_GE(cfg.ring_capacity, hops);  // nothing spins before start()
    const auto events = run_runtime(cfg, mics, hops, true);
    ASSERT_EQ(events.size(), reference.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(events[i] == reference[i])
          << "workers=" << workers << " event " << i;
    }
  }
}

TEST(StreamRuntime, BlockPolicyLosesNothingUnderTinyRings) {
  auto cfg = base_config(2);
  cfg.ring_capacity = 2;
  cfg.drop_policy = DropPolicy::kBlock;
  const std::size_t mics = 4;
  const std::uint64_t hops = 16;
  const auto reference = serial_reference(cfg, mics, hops);
  const auto events = run_runtime(cfg, mics, hops);
  const auto stats_equivalent = events.size() == reference.size();
  EXPECT_TRUE(stats_equivalent);
  for (std::size_t i = 0; i < std::min(events.size(), reference.size());
       ++i) {
    EXPECT_TRUE(events[i] == reference[i]) << "event " << i;
  }
}

TEST(StreamRuntime, DropNewestKeepsTheEarliestBlocks) {
  auto cfg = base_config(1);
  cfg.ring_capacity = 2;
  cfg.drop_policy = DropPolicy::kDropNewest;
  StreamRuntime runtime(cfg);
  const auto mic = runtime.add_mic("m");
  // Workers not started yet: the ring fills deterministically.  Blocks
  // 0..1 carry a tone, the rest are silent.
  EXPECT_TRUE(runtime.submit_block(mic, 0.00, tone_block(800.0)));
  EXPECT_TRUE(runtime.submit_block(mic, 0.05, tone_block(800.0)));
  EXPECT_FALSE(runtime.submit_block(mic, 0.10, silent_block()));
  EXPECT_FALSE(runtime.submit_block(mic, 0.15, silent_block()));
  runtime.finish();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.processed, 2u);
  EXPECT_EQ(stats.dropped_newest, 2u);
  EXPECT_EQ(stats.dropped_oldest, 0u);
  // The surviving pair of tone blocks yields exactly one onset at t=0.
  ASSERT_EQ(runtime.events().size(), 1u);
  EXPECT_EQ(runtime.events()[0].seq, 0u);
  EXPECT_DOUBLE_EQ(runtime.events()[0].time_s, 0.0);
}

TEST(StreamRuntime, DropOldestKeepsTheLatestBlocks) {
  auto cfg = base_config(1);
  cfg.ring_capacity = 2;
  cfg.drop_policy = DropPolicy::kDropOldest;
  StreamRuntime runtime(cfg);
  const auto mic = runtime.add_mic("m");
  // Tone first, then silence: DropOldest must shed the tone blocks and
  // keep the two most recent silent ones.
  EXPECT_TRUE(runtime.submit_block(mic, 0.00, tone_block(800.0)));
  EXPECT_TRUE(runtime.submit_block(mic, 0.05, tone_block(800.0)));
  EXPECT_TRUE(runtime.submit_block(mic, 0.10, silent_block()));
  EXPECT_TRUE(runtime.submit_block(mic, 0.15, silent_block()));
  runtime.finish();
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.processed, 2u);
  EXPECT_EQ(stats.dropped_oldest, 2u);
  EXPECT_EQ(stats.dropped_newest, 0u);
  EXPECT_TRUE(runtime.events().empty());  // only silence survived
}

// A dropped block's journal record cites the emissions the block carried,
// so it must not sort before them: explain() from the drop ends on the
// drop.  Each block's emission starts 30 ms into it, after the block
// start and before its end.
TEST(StreamRuntime, DropRecordIsStampedNoEarlierThanItsCause) {
  obs::Journal& journal = obs::Journal::global();
  for (DropPolicy policy : {DropPolicy::kDropNewest, DropPolicy::kDropOldest}) {
    SCOPED_TRACE(policy == DropPolicy::kDropNewest ? "kDropNewest"
                                                   : "kDropOldest");
    journal.enable(1024);
    journal.clear();
    auto cfg = base_config(1);
    cfg.ring_capacity = 2;
    cfg.drop_policy = policy;
    {
      StreamRuntime runtime(cfg);
      const auto mic = runtime.add_mic("m");
      // Workers not started: the third and fourth blocks meet a full ring.
      for (std::uint64_t hop = 0; hop < 4; ++hop) {
        const double start_s = static_cast<double>(hop) * kHopS;
        obs::JournalRecord emitted;
        emitted.kind = obs::JournalKind::kToneEmitted;
        emitted.sim_ns = net::from_seconds(start_s + 0.03);
        emitted.frequency_hz = 800.0;
        const audio::EmissionTag tag{journal.append(emitted), 800.0};
        runtime.submit_block(mic, start_s, tone_block(800.0),
                             std::span<const audio::EmissionTag>(&tag, 1));
      }
      runtime.finish();
    }
    std::size_t drops = 0;
    for (const obs::JournalRecord& rec : journal.snapshot()) {
      if (rec.kind != obs::JournalKind::kBlockDropped) continue;
      ++drops;
      obs::JournalRecord cause;
      ASSERT_TRUE(journal.find(rec.cause, &cause)) << "drop #" << rec.id;
      EXPECT_GE(rec.sim_ns, cause.sim_ns) << "drop #" << rec.id;
      EXPECT_EQ(journal.explain(rec.id).back().id, rec.id)
          << "drop #" << rec.id;
    }
    EXPECT_EQ(drops, 2u);
  }
  journal.disable();
  journal.clear();
}

TEST(StreamRuntime, HandlerSeesEventsInCanonicalOrder) {
  auto cfg = base_config(3);
  std::vector<StreamEvent> seen;
  StreamRuntime runtime(cfg);
  for (int m = 0; m < 3; ++m) {
    runtime.add_mic(std::string("m").append(std::to_string(m)));
  }
  runtime.on_event([&seen](const StreamEvent& e) { seen.push_back(e); });
  runtime.start();
  for (std::uint64_t hop = 0; hop < 10; ++hop) {
    for (std::uint32_t mic = 0; mic < 3; ++mic) {
      runtime.submit_block(mic, static_cast<double>(hop) * kHopS,
                           scenario_block(mic, hop, cfg.watch_hz));
    }
    runtime.poll();  // incremental delivery is allowed mid-stream
  }
  runtime.finish();
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.size(), runtime.events().size());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_TRUE(stream_event_before(seen[i - 1], seen[i]));
  }
  EXPECT_EQ(runtime.stats().delivered, seen.size());
}

TEST(StreamRuntime, SubmitAfterFinishThrows) {
  StreamRuntime runtime(base_config(1));
  const auto mic = runtime.add_mic("m");
  runtime.start();
  runtime.finish();
  EXPECT_THROW(runtime.submit_block(mic, 0.0, silent_block()),
               std::logic_error);
}

TEST(StreamRuntime, SubmitToUnknownMicThrows) {
  StreamRuntime runtime(base_config(1));
  const auto mic = runtime.add_mic("m");
  EXPECT_THROW(runtime.submit_block(mic + 1, 0.0, silent_block()),
               std::out_of_range);
  runtime.finish();
  EXPECT_EQ(runtime.stats().submitted, 0u);
  EXPECT_EQ(runtime.stats().processed, 0u);
}

TEST(StreamRuntime, WorkerWallHistogramCountsEveryBlock) {
  // Blocks queued before start() form a backlog; the worker still times
  // each one, so its wall histogram and Fig 2b's "dsp/fft/wall_ns" both
  // gain exactly one sample per block.
  const obs::Histogram& wall =
      obs::Registry::global().histogram("rt/worker/0/block_wall_ns");
  const obs::Histogram& fft =
      obs::Registry::global().histogram("dsp/fft/wall_ns");
  const std::uint64_t before = wall.count();
  const std::uint64_t fft_before = fft.count();
  constexpr std::uint64_t kBlocks = 11;
  StreamRuntime runtime(base_config(1));
  const auto mic = runtime.add_mic("m");
  for (std::uint64_t hop = 0; hop < kBlocks; ++hop) {
    runtime.submit_block(mic, static_cast<double>(hop) * kHopS,
                         tone_block(800.0));
  }
  runtime.finish();
  EXPECT_EQ(runtime.stats().processed, kBlocks);
  EXPECT_EQ(wall.count() - before, kBlocks);
  EXPECT_EQ(fft.count() - fft_before, kBlocks);
}

TEST(StreamRuntime, AddMicAfterStartThrows) {
  StreamRuntime runtime(base_config(1));
  runtime.add_mic("m");
  runtime.start();
  EXPECT_THROW(runtime.add_mic("late"), std::logic_error);
  runtime.finish();
}

TEST(StreamRuntime, FinishIsIdempotentAndStartsLazyWorkers) {
  auto cfg = base_config(2);
  cfg.drop_policy = DropPolicy::kDropNewest;
  StreamRuntime runtime(cfg);
  const auto mic = runtime.add_mic("m");
  // Submitted before start(): finish() must still process it.
  runtime.submit_block(mic, 0.0, tone_block(800.0));
  runtime.finish();
  runtime.finish();
  EXPECT_EQ(runtime.stats().processed, 1u);
  EXPECT_EQ(runtime.events().size(), 1u);
}

TEST(StreamRuntime, BlockSubmittedJustBeforeFinishIsProcessed) {
  // finish() right behind a submit races the worker's close decision: a
  // worker that saw the ring empty and only then the finish flag would
  // close the mic and lose the block.  Many short runs make the window
  // likely to be hit if it exists.
  for (int cycle = 0; cycle < 3000; ++cycle) {
    StreamRuntime runtime(base_config(1));
    const auto mic = runtime.add_mic("m");
    runtime.start();
    runtime.submit_block(mic, 0.0, tone_block(800.0));
    runtime.finish();
    ASSERT_EQ(runtime.stats().processed, 1u) << "cycle " << cycle;
    ASSERT_EQ(runtime.stats().delivered, 1u) << "cycle " << cycle;
  }
}

// Destroying a started runtime without finish() stops and joins its
// workers (they drain every ring first) and delivers nothing: objects the
// handler refers to may already be gone.
TEST(StreamRuntime, DestroyWithoutFinishJoinsWorkersAndDeliversNothing) {
  const obs::Counter& processed =
      obs::Registry::global().counter("rt/runtime/blocks_processed");
  const std::uint64_t before = processed.value();
  constexpr std::uint32_t kMics = 3;
  constexpr std::uint64_t kHops = 8;
  std::size_t delivered = 0;
  {
    StreamRuntime runtime(base_config(2));
    for (std::uint32_t m = 0; m < kMics; ++m) {
      runtime.add_mic(std::string("m").append(std::to_string(m)));
    }
    runtime.on_event([&delivered](const StreamEvent&) { ++delivered; });
    runtime.start();
    for (std::uint64_t hop = 0; hop < kHops; ++hop) {
      for (std::uint32_t mic = 0; mic < kMics; ++mic) {
        runtime.submit_block(mic, static_cast<double>(hop) * kHopS,
                             tone_block(800.0));
      }
    }
  }
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(processed.value() - before, kMics * kHops);
}

TEST(StreamRuntime, MicNamesRoundTrip) {
  StreamRuntime runtime(base_config(1));
  const auto a = runtime.add_mic("alpha");
  const auto b = runtime.add_mic("beta");
  EXPECT_EQ(runtime.mic_count(), 2u);
  EXPECT_EQ(runtime.mic_name(a), "alpha");
  EXPECT_EQ(runtime.mic_name(b), "beta");
}

}  // namespace
}  // namespace mdn::rt
