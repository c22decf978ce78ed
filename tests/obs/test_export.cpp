#include "obs/export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health.h"
#include "obs/latency.h"
#include "obs/scoreboard.h"
#include "obs/timeline.h"

namespace mdn::obs {
namespace {

Registry& sample_registry() {
  static Registry* r = [] {
    auto* reg = new Registry();
    reg->counter("net/switch/s1/packets").add(7);
    reg->gauge("net/loop/queue_depth").set(3);
    auto& h = reg->histogram("dsp/fft/wall_ns",
                             {.first_bound = 10.0, .growth = 10.0,
                              .buckets = 4});
    h.record(5.0);    // bucket le=10
    h.record(50.0);   // bucket le=100
    h.record(50.0);
    return reg;
  }();
  return *r;
}

TEST(ExportTest, PrometheusNames) {
  EXPECT_EQ(prometheus_name("net/switch/s1/queue_depth"),
            "mdn_net_switch_s1_queue_depth");
  EXPECT_EQ(prometheus_name("dsp/fft/wall_ns"), "mdn_dsp_fft_wall_ns");
}

TEST(ExportTest, PrometheusNamesSanitiseHostileInput) {
  // Anything outside [a-zA-Z0-9_:] must be replaced — slashes, dashes,
  // spaces, quotes, newlines.  The mdn_ prefix also guards against a
  // leading digit.
  const std::string hostile = prometheus_name("score/mic-0/\"odd\" name\n2");
  EXPECT_EQ(hostile.find_first_not_of(
                "abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"),
            std::string::npos);
  EXPECT_EQ(prometheus_name("0abc"), "mdn_0abc");  // prefix keeps it legal
}

TEST(ExportTest, PrometheusLabelValueEscaping) {
  // Per the text-format spec only backslash, double quote and newline
  // are escaped inside label values.
  const auto label = [](std::string_view value) {
    return PromLabels().add("l", value).text();
  };
  EXPECT_EQ(label("plain"), "{l=\"plain\"}");
  EXPECT_EQ(label("a\\b"), "{l=\"a\\\\b\"}");
  EXPECT_EQ(label("say \"hi\""), "{l=\"say \\\"hi\\\"\"}");
  EXPECT_EQ(label("two\nlines"), "{l=\"two\\nlines\"}");
  EXPECT_EQ(label("tab\tok"), "{l=\"tab\tok\"}");  // untouched
  EXPECT_EQ(label("rack\\1 \"mic\"\nA"),
            "{l=\"rack\\\\1 \\\"mic\\\"\\nA\"}");
}

TEST(ExportTest, PrometheusLabelBlocksJoinAndSpellNumbers) {
  EXPECT_EQ(PromLabels().text(), "");
  EXPECT_EQ(PromLabels().add("mic", "m0").add("watch_hz", 1200.5).text(),
            "{mic=\"m0\",watch_hz=\"1200.5\"}");
  EXPECT_EQ(PromLabels().add("watch", std::size_t{3}).text(),
            "{watch=\"3\"}");
}

TEST(ExportTest, NumberSpellingMatchesPrintfG9) {
  std::vector<double> values = {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0,
                                123456789.0, 1234567891.0, 2.5e-7,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min() / 3.0,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  for (int e = -320; e <= 308; ++e) {
    for (double mantissa : {1.0, 1.5, 9.87654321, 9.999999999}) {
      const double v = mantissa * std::pow(10.0, e);
      if (!std::isfinite(v)) continue;
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (double v : values) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.9g", v);
    std::string spelled;
    append_number(spelled, v);
    EXPECT_EQ(spelled, expected) << "for " << v;
  }
}

TEST(ExportTest, NonFiniteNumbersUseTheTextFormatSpelling) {
  const double inf = std::numeric_limits<double>::infinity();
  std::string out;
  append_number(out, std::numeric_limits<double>::quiet_NaN());
  out += ' ';
  append_number(out, inf);
  out += ' ';
  append_number(out, -inf);
  EXPECT_EQ(out, "NaN +Inf -Inf");
}

TEST(ExportTest, IntegersAreSpelledExactly) {
  Registry reg;
  const std::uint64_t big = (std::uint64_t{1} << 53) + 1;  // not a double
  reg.counter("big").add(big);
  reg.gauge("neg").set(std::numeric_limits<std::int64_t>::min() + 1);
  const std::string prom = to_prometheus(reg.snapshot());
  EXPECT_NE(prom.find("mdn_big 9007199254740993\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("mdn_neg -9223372036854775807\n"), std::string::npos)
      << prom;
  EXPECT_NE(to_jsonl(reg.snapshot()).find("\"value\":9007199254740993"),
            std::string::npos);
}

// Families in the order their groups appear.  Fails the test when a
// family's TYPE line is missing, repeated or after its first sample.
std::vector<std::string> family_groups(const std::string& prom) {
  std::vector<std::string> groups;
  std::map<std::string, std::string> types;
  std::istringstream in(prom);
  for (std::string line; std::getline(in, line);) {
    std::string family;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream type_line(line.substr(7));
      std::string type;
      type_line >> family >> type;
      EXPECT_TRUE(types.emplace(family, type).second)
          << "second TYPE line for " << family;
    } else {
      family = line.substr(0, line.find_first_of("{ "));
      for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
        const auto base =
            types.find(family.substr(0, family.size() - suffix.size()));
        if (family.ends_with(suffix) && base != types.end() &&
            base->second == "histogram") {
          family = base->first;
          break;
        }
      }
      EXPECT_TRUE(types.count(family) != 0)
          << family << " sampled before its TYPE line";
    }
    if (groups.empty() || groups.back() != family) groups.push_back(family);
  }
  return groups;
}

void expect_one_group_per_family(const std::string& prom) {
  const std::vector<std::string> groups = family_groups(prom);
  EXPECT_FALSE(groups.empty());
  const std::set<std::string> families(groups.begin(), groups.end());
  EXPECT_EQ(families.size(), groups.size()) << prom;
}

TEST(ExportTest, EveryViewKeepsEachFamilyInOneGroup) {
  expect_one_group_per_family(to_prometheus(sample_registry().snapshot()));

  // Two mics x two watches, every cell non-empty.
  Journal journal;
  journal.enable(64);
  for (std::uint32_t mic = 0; mic < 2; ++mic) {
    for (double hz : {800.0, 1200.0}) {
      JournalRecord emitted;
      emitted.kind = JournalKind::kToneEmitted;
      emitted.frequency_hz = hz;
      emitted.mic = mic;
      JournalRecord detected = emitted;
      detected.kind = JournalKind::kToneDetected;
      detected.sim_ns = 10'000'000;
      detected.cause = journal.append(emitted);
      journal.append(detected);
    }
  }
  const Scoreboard board = Scoreboard::build(journal);
  ASSERT_EQ(board.mic_count(), 2u);
  ASSERT_EQ(board.watch_count(), 2u);
  expect_one_group_per_family(board.to_prometheus());

  LatencyProfiler profiler(journal);
  profiler.profile(JournalKind::kToneDetected);
  expect_one_group_per_family(profiler.to_prometheus());

  Health health(HealthConfig{.watch_count = 2});
  for (const char* name : {"front", "rear"}) {
    MicSignalEstimator& mic = health.estimator(health.add_mic(name));
    mic.begin_block(0.1, BlockSignalStats{.noise_floor = 0.01});
    mic.observe_watch(0, true, true, 1.0, 0);
    mic.observe_watch(1, true, true, 0.5, 0);
    mic.end_block();
  }
  expect_one_group_per_family(health.to_prometheus());

  Counter packets;
  Gauge depth;
  Timeline timeline;
  timeline.track_counter("pkts", packets);
  timeline.track_gauge("depth", depth);
  for (int i = 0; i < 3; ++i) {
    packets.add(5);
    depth.set(i);
    timeline.sample(i * 1'000'000'000LL);
  }
  expect_one_group_per_family(timeline.to_prometheus());
}

TEST(ExportTest, HostileMetricPathsSurviveAllExporters) {
  Registry reg;
  reg.counter("weird/name with spaces/\"quoted\"").add(1);
  reg.gauge("trailing/slash/").set(2);
  const auto snapshot = reg.snapshot();

  const std::string prom = to_prometheus(snapshot);
  // Every non-comment line must be `<legal_name>(_suffix)?({...})? <num>`.
  std::size_t start = 0;
  while (start < prom.size()) {
    std::size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_EQ(line.substr(0, name_end)
                  .find_first_not_of(
                      "abcdefghijklmnopqrstuvwxyz"
                      "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"),
              std::string::npos)
        << line;
  }

  // JSON exporters escape instead of sanitising: round-trip the quotes.
  EXPECT_NE(to_jsonl(snapshot).find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(to_json(snapshot).find("\\\"quoted\\\""), std::string::npos);
}

TEST(ExportTest, PrometheusText) {
  const std::string out = to_prometheus(sample_registry().snapshot());
  EXPECT_NE(out.find("# TYPE mdn_net_switch_s1_packets counter\n"
                     "mdn_net_switch_s1_packets 7\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE mdn_net_loop_queue_depth gauge\n"
                     "mdn_net_loop_queue_depth 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE mdn_dsp_fft_wall_ns histogram\n"),
            std::string::npos);
  // Cumulative buckets: 1 sample <= 10, 3 samples <= 100 and <= +Inf.
  EXPECT_NE(out.find("mdn_dsp_fft_wall_ns_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mdn_dsp_fft_wall_ns_bucket{le=\"100\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("mdn_dsp_fft_wall_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("mdn_dsp_fft_wall_ns_sum 105\n"), std::string::npos);
  EXPECT_NE(out.find("mdn_dsp_fft_wall_ns_count 3\n"), std::string::npos);
}

TEST(ExportTest, JsonlOneLinePerMetric) {
  const std::string out = to_jsonl(sample_registry().snapshot());
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(out.find("{\"name\":\"net/switch/s1/packets\","
                     "\"kind\":\"counter\",\"value\":7}"),
            std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"histogram\""), std::string::npos);
}

TEST(ExportTest, JsonObjectKeyedByName) {
  const std::string out = to_json(sample_registry().snapshot());
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.back(), '}');
  EXPECT_NE(out.find("\"net/switch/s1/packets\":{\"kind\":\"counter\","
                     "\"value\":7}"),
            std::string::npos);
  EXPECT_NE(out.find("\"dsp/fft/wall_ns\":{\"kind\":\"histogram\""),
            std::string::npos);
  EXPECT_NE(out.find("\"buckets\":[[10,1],[100,2]]"), std::string::npos);
}

TEST(ExportTest, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ExportTest, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "obs_export_test.txt";
  ASSERT_TRUE(write_file(path, "hello"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "hello");
  std::remove(path.c_str());
}

TEST(ExportTest, WriteFileFailsGracefully) {
  EXPECT_FALSE(write_file("/nonexistent-dir/x/y/z.txt", "data"));
}

}  // namespace
}  // namespace mdn::obs
