// Fleet integration: acoustic rooms of switches driven by the workload
// engine, with the journal scoreboard attributing per-room (mic-scoped)
// precision/recall and the whole pipeline replaying deterministically.
#include "mdn/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "net/traffic_gen.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/scoreboard.h"

namespace mdn::core {
namespace {

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.rooms = 2;
  cfg.switches_per_room = 2;
  cfg.emitter_min_gap = 50 * net::kMillisecond;
  return cfg;
}

TEST(Fleet, TopologyInvariants) {
  net::EventLoop loop;
  Fleet fleet(loop, small_fleet());
  EXPECT_EQ(fleet.room_count(), 2u);
  EXPECT_EQ(fleet.switch_count(), 4u);
  EXPECT_EQ(fleet.room_of(0), 0u);
  EXPECT_EQ(fleet.room_of(1), 0u);
  EXPECT_EQ(fleet.room_of(2), 1u);
  EXPECT_EQ(fleet.room_of(3), 1u);
  // hh + ps bins per switch, summed over the fleet.
  EXPECT_EQ(fleet.watched_tone_count(), 4u * (16u + 16u));
  // Rooms reuse the same frequency plan layout, so the deduped union is
  // one room's worth of tones, sorted ascending.
  const auto hz = fleet.watch_hz();
  EXPECT_EQ(hz.size(), 2u * (16u + 16u));
  EXPECT_TRUE(std::is_sorted(hz.begin(), hz.end()));
  EXPECT_TRUE(std::adjacent_find(hz.begin(), hz.end()) == hz.end());
}

struct FleetRun {
  std::uint64_t digest = 0;
  std::uint64_t packets = 0;
  std::uint64_t onsets = 0;
  obs::Scoreboard::Cell mic0, mic1, grand;
  std::string board;
  std::uint64_t tones_played = 0;
  std::uint64_t tones_synthesised = 0;
  /// Distinct (frequency, intensity) pairs among the kToneEmitted
  /// records.  Every fleet reporter plays its config's one duration and
  /// a frequency belongs to one reporter, so a pair fixes the whole
  /// (frequency, duration, intensity) triple.
  std::size_t distinct_tones = 0;
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

FleetRun run_small_fleet(double skew) {
  obs::Journal::global().enable(1u << 16);
  obs::Journal::global().clear();
  const std::uint64_t played0 = counter_value("mp/bridge/tones_played");
  const std::uint64_t synthesised0 =
      counter_value("mp/bridge/tones_synthesised");

  net::EventLoop loop;
  Fleet fleet(loop, small_fleet());

  net::TrafficGenConfig tcfg;
  tcfg.population.total_flows = 512;
  tcfg.population.zipf_skew = skew;
  tcfg.rate_pps = 2000.0;
  tcfg.churn_fpm = 600.0;
  tcfg.stop = net::from_seconds(1.5);
  tcfg.seed = 7;
  net::TrafficGen gen(loop, tcfg);
  for (std::size_t s = 0; s < fleet.switch_count(); ++s) {
    gen.add_target(fleet.switch_at(s));
  }

  fleet.start();
  gen.start();
  fleet.stop_at(net::from_seconds(1.65));
  loop.run();

  obs::ScoreboardConfig scfg;
  scfg.watch_hz = fleet.watch_hz();
  scfg.tolerance_hz = 10.0;
  scfg.mics = fleet.room_count();
  const auto board = obs::Scoreboard::build(obs::Journal::global(), scfg);

  FleetRun r;
  r.digest = gen.trace_digest();
  r.packets = gen.packets();
  r.onsets = fleet.onsets_heard();
  r.mic0 = board.totals(0);
  r.mic1 = board.totals(1);
  r.grand = board.grand_totals();
  r.board = board.render();
  r.tones_played = counter_value("mp/bridge/tones_played") - played0;
  r.tones_synthesised =
      counter_value("mp/bridge/tones_synthesised") - synthesised0;
  EXPECT_EQ(obs::Journal::global().evicted(), 0u);
  std::set<std::pair<double, double>> tones;
  for (const obs::JournalRecord& rec : obs::Journal::global().snapshot()) {
    if (rec.kind == obs::JournalKind::kToneEmitted) {
      tones.emplace(rec.frequency_hz, rec.value);
    }
  }
  r.distinct_tones = tones.size();
  return r;
}

TEST(Fleet, HearsTheWorkloadInEveryRoom) {
  const FleetRun r = run_small_fleet(1.26);
  EXPECT_EQ(r.packets, 3000u);
  EXPECT_GT(r.onsets, 0u);
  EXPECT_GT(r.mic0.detected, 0u) << "room 0 mic hears its switches";
  EXPECT_GT(r.mic1.detected, 0u) << "room 1 mic hears its switches";
  EXPECT_GT(r.grand.recall(), 0.2);
}

TEST(Fleet, ScoreboardIsMicScoped) {
  // Rooms reuse the same tone frequencies; without mic-scoped emissions
  // every room-0 tone would also count as a room-1 miss and recall would
  // collapse.  Scoped, each room's emitted count covers only its own
  // switches and the grand total is their sum.
  const FleetRun r = run_small_fleet(0.0);
  EXPECT_GT(r.mic0.emitted, 0u);
  EXPECT_GT(r.mic1.emitted, 0u);
  EXPECT_EQ(r.grand.emitted, r.mic0.emitted + r.mic1.emitted);
  EXPECT_EQ(r.grand.detected, r.mic0.detected + r.mic1.detected);
  // Both rooms carry real workload: neither side dominates entirely.
  EXPECT_GT(r.mic0.recall(), 0.2);
  EXPECT_GT(r.mic1.recall(), 0.2);
}

TEST(Fleet, ReplaysByteIdentically) {
  const FleetRun a = run_small_fleet(1.26);
  const FleetRun b = run_small_fleet(1.26);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.onsets, b.onsets);
  EXPECT_EQ(a.board, b.board) << "scoreboard render must be byte-identical";
}

TEST(Fleet, SynthesisesEachDistinctToneOnce) {
  // One tone bank serves every bridge in the fleet: a tone is synthesised
  // the first time any switch plays it and shared from then on.
  const FleetRun r = run_small_fleet(1.26);
  EXPECT_EQ(r.tones_synthesised, r.distinct_tones);
  EXPECT_GT(r.tones_played, r.tones_synthesised) << "tones repeat";
}

}  // namespace
}  // namespace mdn::core
