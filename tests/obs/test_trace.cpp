#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/export.h"

namespace mdn::obs {
namespace {

std::int64_t fake_clock() { return 42; }

// A clock that advances 1000 ns per read, so every read shows.
std::int64_t g_clock_reads = 0;
std::int64_t stepping_clock() { return ++g_clock_reads * 1000; }

TEST(TracerTest, DisabledByDefaultAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  const auto track = t.track("net/loop");
  t.instant("onset", track, 1000);
  { const auto timed = Stage(nullptr, &t, "work", track).scope(2000); }
  EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, TrackRegistrationIsIdempotent) {
  Tracer t;
  EXPECT_EQ(t.track("a"), 0u);
  EXPECT_EQ(t.track("b"), 1u);
  EXPECT_EQ(t.track("a"), 0u);
  ASSERT_EQ(t.track_names().size(), 2u);
}

TEST(TracerTest, RecordsInstantAndCompleteEvents) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&fake_clock);
  const auto track = t.track("mdn/controller");
  t.instant("onset", track, 5000);
  t.complete("detect", track, 6000, 100, 2500);
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.events()[0].phase, 'i');
  EXPECT_EQ(t.events()[0].sim_ns, 5000);
  EXPECT_EQ(t.events()[0].wall_ns, 42);
  EXPECT_EQ(t.events()[1].phase, 'X');
  EXPECT_EQ(t.events()[1].wall_dur_ns, 2500);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(TracerTest, SpanUsesInjectedClock) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&fake_clock);
  const Stage stage(nullptr, &t, "work", t.track("x"));
  { const auto timed = stage.scope(7000); }
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].name, "work");
  EXPECT_EQ(t.events()[0].sim_ns, 7000);
  EXPECT_EQ(t.events()[0].wall_dur_ns, 0);  // frozen clock
}

TEST(TracerTest, NullTracerSpanIsANoop) {
  const Stage stage(nullptr, nullptr, "nothing");
  const auto timed = stage.scope();  // must not crash
}

TEST(StageTest, OneClockPairFeedsHistogramAndSpan) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&stepping_clock);
  Histogram hist;
  const Stage stage(&hist, &t, "work", t.track("x"));
  g_clock_reads = 0;
  { const auto timed = stage.scope(7000); }
  EXPECT_EQ(g_clock_reads, 2);
  ASSERT_EQ(t.events().size(), 1u);
  const TraceEvent& span = t.events()[0];
  EXPECT_EQ(span.phase, 'X');
  EXPECT_EQ(span.sim_ns, 7000);
  EXPECT_EQ(span.wall_ns, 1000);
  EXPECT_EQ(span.wall_dur_ns, 1000);
  const auto snap = hist.snapshot();
  ASSERT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, static_cast<double>(span.wall_dur_ns));
}

TEST(StageTest, DisabledOrNullTracerLeavesOnlyTheHistogramSample) {
  Tracer disabled;
  disabled.set_wall_clock(&stepping_clock);
  Histogram hist;
  g_clock_reads = 0;
  { const auto timed = Stage(&hist, &disabled, "work").scope(); }
  { const auto timed = Stage(&hist, nullptr, "work").scope(); }
  EXPECT_EQ(g_clock_reads, 0);  // a disabled tracer's clock is not used
  EXPECT_TRUE(disabled.events().empty());
  EXPECT_EQ(hist.count(), 2u);
}

TEST(StageTest, NullHistogramLeavesOnlyTheSpan) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&stepping_clock);
  const Stage stage(nullptr, &t, "work", t.track("x"));
  g_clock_reads = 0;
  { const auto timed = stage.scope(5000); }
  EXPECT_EQ(g_clock_reads, 2);
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].wall_dur_ns, 1000);
}

TEST(StageTest, RealtimeScopeFeedsOnlyTheHistogram) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&stepping_clock);
  Histogram hist;
  const Stage stage(&hist, &t, "work", t.track("x"));
  g_clock_reads = 0;
  { const auto timed = stage.realtime_scope(); }
  { const auto timed = Stage().realtime_scope(); }  // nothing to feed
  EXPECT_EQ(g_clock_reads, 0);      // never the tracer's clock
  EXPECT_TRUE(t.events().empty());  // and never a span
  EXPECT_EQ(hist.count(), 1u);      // one sample per scope
}

// Golden test: the exact Chrome trace_event JSON for a fixed event
// sequence with an injected wall clock.
TEST(TracerTest, ChromeTraceGolden) {
  Tracer t;
  t.enable();
  t.set_wall_clock(&fake_clock);
  const auto loop = t.track("net/loop");
  const auto ctl = t.track("mdn/controller");
  t.complete("event", loop, 1500, 100, 2500);
  t.instant("onset", ctl, 2000);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"net/loop\"}},"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"mdn/controller\"}},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"event\",\"ts\":1.500,"
      "\"dur\":2.500,\"args\":{\"sim_ns\":1500,\"wall_ns\":100}},"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"name\":\"onset\",\"ts\":2.000,"
      "\"s\":\"t\",\"args\":{\"sim_ns\":2000,\"wall_ns\":42}}"
      "]}";
  EXPECT_EQ(to_chrome_trace(t), expected);
}

}  // namespace
}  // namespace mdn::obs
