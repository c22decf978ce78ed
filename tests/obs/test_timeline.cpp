#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace mdn::obs {
namespace {

TEST(TimelineTest, SamplesTrackedInstrumentsInRegistrationOrder) {
  Counter packets;
  Gauge depth;
  Timeline timeline({.capacity = 8});
  timeline.track_counter("net/packets", packets);
  timeline.track_gauge("rt/queue_depth", depth);
  ASSERT_EQ(timeline.track_count(), 2u);
  EXPECT_EQ(timeline.track_name(0), "net/packets");
  EXPECT_EQ(timeline.track_name(1), "rt/queue_depth");

  packets.add(3);
  depth.set(2);
  timeline.sample(1'000'000'000);
  packets.add(7);
  depth.set(5);
  timeline.sample(2'000'000'000);

  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.time_at(0), 1'000'000'000);
  EXPECT_EQ(timeline.value_at(0, 0), 3.0);
  EXPECT_EQ(timeline.value_at(1, 0), 10.0);
  EXPECT_EQ(timeline.value_at(1, 1), 5.0);
}

TEST(TimelineTest, RingKeepsNewestRowsAndCountsDropped) {
  Counter c;
  Timeline timeline({.capacity = 4});
  timeline.track_counter("c", c);
  for (int i = 0; i < 10; ++i) {
    c.inc();
    timeline.sample(i * 1'000'000'000LL);
  }
  EXPECT_EQ(timeline.sampled(), 10u);
  EXPECT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline.dropped(), 6u);
  // Oldest resident row is sample #6 (value 7 after seven incs).
  EXPECT_EQ(timeline.time_at(0), 6'000'000'000LL);
  EXPECT_EQ(timeline.value_at(0, 0), 7.0);
  EXPECT_EQ(timeline.time_at(3), 9'000'000'000LL);
  EXPECT_EQ(timeline.value_at(3, 0), 10.0);
}

TEST(TimelineTest, RollupDerivesRateAndExtremes) {
  Counter c;
  Gauge g;
  Timeline timeline({.capacity = 16});
  timeline.track_counter("pkts", c);
  timeline.track_gauge("depth", g);
  // 100 packets over 2 s of sim time -> 50/s; gauge dips to -3.
  g.set(4);
  timeline.sample(0);
  c.add(60);
  g.set(-3);
  timeline.sample(1'000'000'000);
  c.add(40);
  g.set(1);
  timeline.sample(2'000'000'000);

  const Timeline::Rollup pkts = timeline.rollup(0);
  EXPECT_EQ(pkts.first, 0.0);
  EXPECT_EQ(pkts.last, 100.0);
  EXPECT_EQ(pkts.delta, 100.0);
  EXPECT_DOUBLE_EQ(pkts.rate_per_s, 50.0);
  const Timeline::Rollup depth = timeline.rollup(1);
  EXPECT_EQ(depth.min, -3.0);
  EXPECT_EQ(depth.max, 4.0);
  EXPECT_EQ(depth.last, 1.0);
}

TEST(TimelineTest, TrackingAfterSamplingThrows) {
  Counter c;
  Timeline timeline({.capacity = 4});
  timeline.track_counter("c", c);
  timeline.sample(0);
  Gauge g;
  EXPECT_THROW(timeline.track_gauge("late", g), std::logic_error);
}

TEST(TimelineTest, RegistryOverloadsResolveByName) {
  Registry& reg = Registry::global();
  reg.counter("timeline_test/ctr").add(5);
  reg.gauge("timeline_test/gge").set(9);
  Timeline timeline({.capacity = 4});
  timeline.track_counter(reg, "timeline_test/ctr");
  timeline.track_gauge(reg, "timeline_test/gge");
  timeline.sample(0);
  EXPECT_EQ(timeline.value_at(0, 0), 5.0);
  EXPECT_EQ(timeline.value_at(0, 1), 9.0);
}

TEST(TimelineTest, JsonlIsCanonicalOldestFirst) {
  Counter c;
  Timeline timeline({.capacity = 4});
  timeline.track_counter("a/b", c);
  c.add(1);
  timeline.sample(500'000'000);
  c.add(1);
  timeline.sample(1'500'000'000);

  const std::string jsonl = timeline.to_timeline_jsonl();
  EXPECT_EQ(jsonl,
            "{\"t_ns\":500000000,\"values\":{\"a/b\":1}}\n"
            "{\"t_ns\":1500000000,\"values\":{\"a/b\":2}}\n");
  // Byte-stable across repeated export.
  EXPECT_EQ(jsonl, timeline.to_timeline_jsonl());
}

// Reads the quoted string whose opening quote ends `prefix` in `text`,
// undoing the \\, \" and \n escapes JSON and the Prometheus text format
// share.  `rest` gets what follows the closing quote.
std::string unquote_after(const std::string& text, const std::string& prefix,
                          std::string* rest) {
  std::size_t i = text.find(prefix);
  EXPECT_NE(i, std::string::npos) << text;
  std::string value;
  for (i += prefix.size(); i < text.size() && text[i] != '"'; ++i) {
    EXPECT_NE(text[i], '\n') << "raw newline inside a quoted string";
    if (text[i] == '\\' && ++i < text.size()) {
      value += text[i] == 'n' ? '\n' : text[i];
    } else {
      value += text[i];
    }
  }
  *rest = i < text.size() ? text.substr(i + 1) : "";
  return value;
}

TEST(TimelineTest, HostileTrackNamesAreEscapedInJsonlAndLabels) {
  const std::string name = "say \"hi\" \\ then\nbreak";
  Counter c;
  Timeline timeline({.capacity = 4});
  timeline.track_counter(name, c);
  c.add(3);
  timeline.sample(0);

  // One JSON line whose key is the JSON-escaped name.
  const std::string jsonl = timeline.to_timeline_jsonl();
  std::string rest;
  EXPECT_EQ(unquote_after(jsonl, "{\"t_ns\":0,\"values\":{\"", &rest), name);
  EXPECT_EQ(rest, ":3}}\n");

  // The label value unescapes back to the name.
  const std::string prom = timeline.to_prometheus();
  EXPECT_EQ(unquote_after(prom, "mdn_timeline_last{track=\"", &rest), name);
  EXPECT_EQ(rest.substr(0, 4), "} 3\n");
}

TEST(TimelineTest, PrometheusRollupFamilies) {
  Counter c;
  Timeline timeline({.capacity = 8});
  timeline.track_counter("pkts", c);
  c.add(10);
  timeline.sample(0);
  c.add(10);
  timeline.sample(2'000'000'000);

  const std::string prom = timeline.to_prometheus();
  EXPECT_NE(prom.find("# TYPE mdn_timeline_samples gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("mdn_timeline_samples 2"), std::string::npos);
  EXPECT_NE(prom.find("mdn_timeline_dropped 0"), std::string::npos);
  EXPECT_NE(prom.find("mdn_timeline_last{track=\"pkts\"} 20"),
            std::string::npos);
  EXPECT_NE(prom.find("mdn_timeline_rate_per_second{track=\"pkts\"} 5"),
            std::string::npos);
}

TEST(TimelineTest, SparklinesRenderEveryTrack) {
  Counter c;
  Gauge g;
  Timeline timeline({.capacity = 32});
  timeline.track_counter("dsp/blocks", c);
  timeline.track_gauge("rt/depth", g);
  for (int i = 0; i < 20; ++i) {
    c.add(static_cast<std::uint64_t>(i % 5));
    g.set(i % 7);
    timeline.sample(i * 100'000'000LL);
  }
  const std::string panel = timeline.render_sparklines(16);
  EXPECT_NE(panel.find("dsp/blocks"), std::string::npos);
  EXPECT_NE(panel.find("rt/depth"), std::string::npos);
  EXPECT_NE(panel.find("rate="), std::string::npos);

  timeline.clear();
  EXPECT_EQ(timeline.size(), 0u);
  EXPECT_EQ(timeline.sampled(), 0u);
  EXPECT_NE(timeline.render_sparklines().find("no samples"),
            std::string::npos);
}

}  // namespace
}  // namespace mdn::obs
