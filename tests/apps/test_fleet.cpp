// Fleet integration: acoustic rooms of switches driven by the workload
// engine, with the journal scoreboard attributing per-room (mic-scoped)
// precision/recall and the whole pipeline replaying deterministically.
#include "mdn/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
  std::string journal;  ///< canonical journal.jsonl
  std::vector<std::vector<ToneEvent>> logs;       ///< per room
  std::vector<std::uint64_t> blocks;              ///< per room
  /// Traced runs: (record, detect) span counts per hop's sim time.
  std::map<std::int64_t, std::pair<int, int>> spans;
};

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

FleetRun run_small_fleet(double skew, bool traced = false) {
  obs::Journal::global().enable(1u << 16);
  obs::Journal::global().clear();
  const std::uint64_t played0 = counter_value("mp/bridge/tones_played");
  const std::uint64_t synthesised0 =
      counter_value("mp/bridge/tones_synthesised");

  net::EventLoop loop;
  if (traced) loop.tracer().enable();
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
  r.journal = obs::to_journal_jsonl(obs::Journal::global());
  for (std::size_t room = 0; room < fleet.room_count(); ++room) {
    r.logs.push_back(fleet.room(room).controller->event_log());
    r.blocks.push_back(fleet.room(room).controller->blocks_processed());
  }
  const obs::Tracer& tracer = loop.tracer();
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.phase != 'X' ||
        tracer.track_names()[ev.track] != "mdn/controller") {
      continue;
    }
    if (ev.name == "controller/record") ++r.spans[ev.sim_ns].first;
    if (ev.name == "controller/detect") ++r.spans[ev.sim_ns].second;
  }
  return r;
}

// FNV-1a over a string's bytes: pins long artifacts by digest.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
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

TEST(Fleet, MatchesSerialParent) {
  // Taken from the fleet whose rooms each ticked on their own series,
  // one after another: the pooled hop must reproduce them exactly.
  const FleetRun r = run_small_fleet(1.26);
  EXPECT_EQ(fnv1a(r.journal), 0xe94cebd923208cb4ull)
      << "canonical journal.jsonl changed";
  EXPECT_EQ(std::count(r.journal.begin(), r.journal.end(), '\n'), 408);
  EXPECT_EQ(r.onsets, 109u);
  EXPECT_EQ(r.board.size(), 5974u);
  EXPECT_EQ(fnv1a(r.board), 0x1788652051a18846ull)
      << "scoreboard render changed:\n" << r.board;
}

TEST(Fleet, TracedRunMatchesUntraced) {
  const FleetRun plain = run_small_fleet(1.26);
  const FleetRun traced = run_small_fleet(1.26, true);
  ASSERT_EQ(traced.logs.size(), plain.logs.size());
  for (std::size_t room = 0; room < plain.logs.size(); ++room) {
    const auto& a = plain.logs[room];
    const auto& b = traced.logs[room];
    ASSERT_EQ(a.size(), b.size()) << "room " << room;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time_s, b[i].time_s) << room << "/" << i;
      EXPECT_EQ(a[i].frequency_hz, b[i].frequency_hz) << room << "/" << i;
      EXPECT_EQ(a[i].amplitude, b[i].amplitude) << room << "/" << i;
    }
  }
  EXPECT_EQ(traced.journal, plain.journal);
  // Spans come from the loop thread, off the pool's readings: one record
  // and one detect span per room per hop.
  EXPECT_TRUE(plain.spans.empty());
  const std::uint64_t hops = traced.blocks.front();
  EXPECT_GT(hops, 0u);
  for (const std::uint64_t blocks : traced.blocks) EXPECT_EQ(blocks, hops);
  EXPECT_EQ(traced.spans.size(), hops);
  const int rooms = static_cast<int>(traced.blocks.size());
  for (const auto& [sim_ns, counts] : traced.spans) {
    EXPECT_EQ(counts.first, rooms) << "record spans at " << sim_ns;
    EXPECT_EQ(counts.second, rooms) << "detect spans at " << sim_ns;
  }
}

TEST(Fleet, StartTwiceRunsOneSeries) {
  net::EventLoop loop;
  Fleet fleet(loop, small_fleet());
  fleet.start();
  fleet.start();
  loop.run_until(net::from_seconds(0.12));
  fleet.start();  // while listening: still one series
  fleet.stop_at(net::from_seconds(1.0));
  loop.run();
  for (std::size_t room = 0; room < fleet.room_count(); ++room) {
    EXPECT_FALSE(fleet.room(room).controller->running());
    EXPECT_EQ(fleet.room(room).controller->blocks_processed(), 19u)
        << "one block per 50 ms hop in room " << room;
  }
  const std::int64_t threads = std::min<std::int64_t>(
      2, std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(obs::Registry::global().gauge("mdn/fleet/capture_threads").value(),
            threads);
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
