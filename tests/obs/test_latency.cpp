#include "obs/latency.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>

#include "obs/export.h"
#include "obs/journal.h"

namespace mdn::obs {
namespace {

JournalRecord make_record(JournalKind kind, std::int64_t sim_ns,
                          CauseId cause = 0) {
  JournalRecord r;
  r.kind = kind;
  r.sim_ns = sim_ns;
  r.cause = cause;
  return r;
}

// The canonical pipeline: emitted(0) -> ingested(50ms) -> detected(50ms)
// -> fsm(50ms) -> flow mod(51ms).  Returns the flow-mod id.
CauseId append_pipeline(Journal& journal, std::int64_t base_ns) {
  const CauseId e = journal.append(
      make_record(JournalKind::kToneEmitted, base_ns));
  const CauseId ing = journal.append(
      make_record(JournalKind::kBlockIngested, base_ns + 50'000'000, e));
  JournalRecord det =
      make_record(JournalKind::kToneDetected, base_ns + 50'000'000, e);
  det.cause2 = ing;
  const CauseId d = journal.append(det);
  const CauseId f = journal.append(
      make_record(JournalKind::kFsmTransition, base_ns + 50'000'000, d));
  return journal.append(
      make_record(JournalKind::kFlowMod, base_ns + 51'000'000, f));
}

TEST(LatencyStageTest, NamesAreStableAndPairSensitive) {
  EXPECT_EQ(latency_stage_name(LatencyStage::kCapture), "capture");
  EXPECT_EQ(latency_stage_name(LatencyStage::kActuate), "actuate");
  // The detection hop's stage depends on where it came from.
  EXPECT_EQ(latency_stage_of(JournalKind::kBlockIngested,
                             JournalKind::kToneDetected),
            LatencyStage::kRingWait);
  EXPECT_EQ(latency_stage_of(JournalKind::kToneEmitted,
                             JournalKind::kToneDetected),
            LatencyStage::kDetect);
  EXPECT_EQ(latency_stage_of(JournalKind::kToneEmitted,
                             JournalKind::kBlockIngested),
            LatencyStage::kCapture);
  EXPECT_EQ(latency_stage_of(JournalKind::kFsmTransition,
                             JournalKind::kFlowMod),
            LatencyStage::kActuate);
}

TEST(LatencyProfilerTest, BreakdownTelescopesToEndToEnd) {
  Journal journal;
  journal.enable(64);
  const CauseId mod = append_pipeline(journal, 1'000'000'000);

  LatencyProfiler profiler(journal);
  const Breakdown b = profiler.breakdown(mod);
  EXPECT_EQ(b.action, mod);
  EXPECT_EQ(b.total_ns, 51'000'000);
  ASSERT_EQ(b.hops.size(), 4u);
  // Per-stage sums telescope exactly to the end-to-end latency.
  const std::int64_t stage_sum =
      std::accumulate(b.stage_ns.begin(), b.stage_ns.end(),
                      static_cast<std::int64_t>(0));
  EXPECT_EQ(stage_sum, b.total_ns);
  EXPECT_EQ(b.stage_ns[static_cast<std::size_t>(LatencyStage::kCapture)],
            50'000'000);
  EXPECT_EQ(b.stage_ns[static_cast<std::size_t>(LatencyStage::kRingWait)],
            0);
  EXPECT_EQ(b.stage_ns[static_cast<std::size_t>(LatencyStage::kActuate)],
            1'000'000);
  EXPECT_GE(b.distinct_stages(), 4u);
  // The waterfall names every hop.
  const std::string waterfall = b.render();
  EXPECT_NE(waterfall.find("capture"), std::string::npos);
  EXPECT_NE(waterfall.find("actuate"), std::string::npos);
}

TEST(LatencyProfilerTest, UnknownActionYieldsEmptyBreakdown) {
  Journal journal;
  journal.enable(8);
  LatencyProfiler profiler(journal);
  const Breakdown b = profiler.breakdown(12345);
  EXPECT_EQ(b.total_ns, 0);
  EXPECT_TRUE(b.hops.empty());
  EXPECT_EQ(b.distinct_stages(), 0u);
}

TEST(LatencyProfilerTest, ProfileAccumulatesStageHistograms) {
  Journal journal;
  journal.enable(256);
  for (int i = 0; i < 5; ++i) {
    append_pipeline(journal, i * 100'000'000);
  }

  LatencyProfiler profiler(journal);
  EXPECT_EQ(profiler.profile(JournalKind::kFlowMod), 5u);
  EXPECT_EQ(profiler.actions_profiled(), 5u);

  const auto capture = profiler.stage_stats(LatencyStage::kCapture);
  EXPECT_EQ(capture.count, 5u);
  EXPECT_NEAR(capture.p50_ns, 50'000'000.0, 5'000'000.0);
  const auto actuate = profiler.stage_stats(LatencyStage::kActuate);
  EXPECT_EQ(actuate.count, 5u);

  // summary() lists only sampled stages; slowest is capture (largest
  // p99 of the sampled set).
  const auto summary = profiler.summary();
  EXPECT_GE(summary.size(), 3u);
  for (const auto& s : summary) EXPECT_GT(s.count, 0u);
  EXPECT_EQ(profiler.slowest_stage().stage, LatencyStage::kCapture);

  const std::string table = profiler.render();
  EXPECT_NE(table.find("slowest stage: capture"), std::string::npos);

  profiler.clear();
  EXPECT_EQ(profiler.actions_profiled(), 0u);
  EXPECT_EQ(profiler.stage_stats(LatencyStage::kCapture).count, 0u);
}

TEST(LatencyProfilerTest, PrometheusFamiliesAreSchemaShaped) {
  Journal journal;
  journal.enable(64);
  append_pipeline(journal, 0);
  LatencyProfiler profiler(journal);
  profiler.profile(JournalKind::kFlowMod);

  const std::string prom = profiler.to_prometheus();
  EXPECT_NE(prom.find("# TYPE mdn_latency_stage_count gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE mdn_latency_stage_p99_seconds gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("mdn_latency_stage_p50_seconds{stage=\"capture\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("mdn_latency_actions_profiled 1"),
            std::string::npos);
}

TEST(LatencyProfilerTest, ChromeTraceWaterfallEmitsStageTracks) {
  Journal journal;
  journal.enable(64);
  append_pipeline(journal, 0);
  LatencyProfiler profiler(journal);
  profiler.profile(JournalKind::kFlowMod);

  const std::string trace = to_chrome_trace(Tracer(), nullptr, &profiler);
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace.back(), '}');
  EXPECT_NE(trace.find("latency/capture"), std::string::npos);
  EXPECT_NE(trace.find("latency/actuate"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // Alone, the stage tracks are numbered from 0 by stage index.
  EXPECT_NE(trace.find("{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":"
                       "\"thread_name\",\"args\":"
                       "{\"name\":\"latency/capture\"}}"),
            std::string::npos);
}

TEST(LatencyProfilerTest, ChromeTraceLayersShareOneEnvelope) {
  Journal journal;
  journal.enable(64);
  append_pipeline(journal, 0);
  LatencyProfiler profiler(journal);
  profiler.profile(JournalKind::kFlowMod);
  Tracer tracer;
  tracer.track("net/loop");

  const std::string trace = to_chrome_trace(tracer, &journal, &profiler);
  EXPECT_EQ(trace.find("displayTimeUnit"), trace.rfind("displayTimeUnit"));
  EXPECT_NE(trace.find("journal/flow_mod"), std::string::npos);
  // Layer tracks follow the tracer's one track, journal kinds first:
  // capture (stage 1) lands on 1 + kJournalKindCount + 1.
  const std::string capture_tid =
      "\"tid\":" + std::to_string(1 + kJournalKindCount + 1) +
      ",\"name\":\"thread_name\",\"args\":{\"name\":\"latency/capture\"}";
  EXPECT_NE(trace.find(capture_tid), std::string::npos);
}

}  // namespace
}  // namespace mdn::obs
