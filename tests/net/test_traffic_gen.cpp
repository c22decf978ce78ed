// Workload engine contracts: batched delivery, seeded determinism with
// a golden trace, churn-rate convergence, scan interleaving, and the
// obs counters the telemetry dashboard reads.
#include "net/traffic_gen.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/switch.h"
#include "obs/metrics.h"

namespace mdn::net {
namespace {

struct GenFixture : ::testing::Test {
  EventLoop loop;
  std::vector<std::unique_ptr<Switch>> sinks;
  std::vector<std::uint64_t> received;

  void add_sinks(std::size_t n) {
    received.reserve(n);  // hooks capture element addresses
    for (std::size_t i = 0; i < n; ++i) {
      sinks.push_back(std::make_unique<Switch>(
          loop, "sink" + std::to_string(i)));
      received.push_back(0);
      auto* count = &received.back();
      sinks.back()->add_packet_hook(
          [count](const Packet&, std::size_t) { ++(*count); });
    }
  }

  TrafficGen make_gen(const TrafficGenConfig& cfg) {
    TrafficGen gen(loop, cfg);
    for (auto& sw : sinks) gen.add_target(*sw);
    return gen;
  }
};

TEST_F(GenFixture, DeliversConfiguredAggregateRate) {
  add_sinks(4);
  TrafficGenConfig cfg;
  cfg.population.total_flows = 1024;
  cfg.rate_pps = 2000.0;
  cfg.stop = 2 * kSecond;
  TrafficGen gen = make_gen(cfg);
  gen.start();
  loop.run();
  EXPECT_EQ(gen.packets(), 4000u);
  std::uint64_t total = 0;
  for (std::uint64_t r : received) total += r;
  EXPECT_EQ(total, 4000u);
  for (std::uint64_t r : received) {
    EXPECT_GT(r, 0u) << "every target gets a share of the flow shards";
  }
}

TEST_F(GenFixture, BatchingSchedulesOneEventPerWindow) {
  add_sinks(1);
  TrafficGenConfig cfg;
  cfg.population.total_flows = 64;
  cfg.rate_pps = 10000.0;
  cfg.stop = 1 * kSecond;
  cfg.batch_interval = 10 * kMillisecond;
  TrafficGen gen = make_gen(cfg);
  gen.start();
  const std::uint64_t before =
      obs::Registry::global().counter("net/loop/events_dispatched").value();
  loop.run();
  const std::uint64_t dispatched =
      obs::Registry::global().counter("net/loop/events_dispatched").value() -
      before;
  EXPECT_EQ(gen.batches(), 100u);
  EXPECT_EQ(dispatched, gen.batches())
      << "10K packets must ride on O(batches) loop events, not O(packets)";
  EXPECT_EQ(gen.packets(), 10000u);
}

TEST_F(GenFixture, SameSeedYieldsByteIdenticalGoldenTrace) {
  add_sinks(3);
  TrafficGenConfig cfg;
  cfg.population.total_flows = 256;
  cfg.population.zipf_skew = 1.26;
  cfg.rate_pps = 500.0;
  cfg.churn_fpm = 120.0;
  cfg.stop = 1 * kSecond;
  cfg.seed = 1234;
  cfg.scan_count = 1;
  cfg.scan_pps = 40.0;
  cfg.record_trace = true;

  auto run = [&]() {
    EventLoop l;
    std::vector<std::unique_ptr<Switch>> sw;
    TrafficGen gen(l, cfg);
    for (int i = 0; i < 3; ++i) {
      sw.push_back(std::make_unique<Switch>(
          l, std::string("s").append(std::to_string(i))));
      gen.add_target(*sw.back());
    }
    gen.start();
    l.run();
    return std::pair<std::uint64_t, std::string>(gen.trace_digest(),
                                                 gen.trace_text());
  };

  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second) << "trace text must be byte-identical";
  EXPECT_FALSE(a.second.empty());

  cfg.seed = 1235;
  const auto c = run();
  EXPECT_NE(a.first, c.first) << "different seed, different trace";
}

TEST_F(GenFixture, ChurnConvergesToConfiguredRate) {
  add_sinks(1);
  TrafficGenConfig cfg;
  cfg.population.total_flows = 512;
  cfg.rate_pps = 100.0;
  cfg.churn_fpm = 600.0;  // 10 flows/s
  cfg.stop = 10 * kSecond;
  TrafficGen gen = make_gen(cfg);
  gen.start();
  loop.run();
  // The fractional accumulator makes the long-run rate exact.
  EXPECT_EQ(gen.churn_events(), 100u);
  EXPECT_EQ(gen.population().minted(), 512u + 100u);
}

TEST_F(GenFixture, ScanOverlaySweepsSequentialPortsInterleaved) {
  add_sinks(2);
  TrafficGenConfig cfg;
  cfg.population.total_flows = 128;
  cfg.rate_pps = 2000.0;
  cfg.stop = 1 * kSecond;
  cfg.scan_count = 1;
  cfg.scan_pps = 100.0;
  cfg.record_trace = true;
  TrafficGen gen = make_gen(cfg);
  gen.start();
  loop.run();
  EXPECT_EQ(gen.scan_packets(), 100u);
  ASSERT_EQ(gen.scan_targets().size(), 1u);

  // Walk the trace: scan lines carry the scanner's source ip and must
  // sweep sequential ports, and they must be mixed through the stream
  // (not clumped at batch edges where they would lose every rate-policed
  // emitter slot).
  std::istringstream in(gen.trace_text());
  std::string line;
  std::size_t scan_seen = 0, lines = 0, first_scan_line = 0;
  std::uint16_t expect_port = cfg.scan_first_port;
  char needle[16];
  std::snprintf(needle, sizeof(needle), ":%u", 31337);
  while (std::getline(in, line)) {
    ++lines;
    if (line.find(needle) != std::string::npos) {
      if (scan_seen == 0) first_scan_line = lines;
      ++scan_seen;
      const auto pos = line.rfind(':');
      ASSERT_NE(pos, std::string::npos);
      const int port = std::stoi(line.substr(pos + 1));
      EXPECT_EQ(port, expect_port++) << "scanner sweeps sequential ports";
    }
  }
  EXPECT_EQ(scan_seen, 100u);
  EXPECT_LT(first_scan_line, lines / 2)
      << "scan packets interleave with background, not appended";
}

TEST_F(GenFixture, RegistryCountersTrackTheRun) {
  add_sinks(1);
  auto& reg = obs::Registry::global();
  const std::uint64_t packets0 = reg.counter("net/trafficgen/packets").value();
  const std::uint64_t batches0 = reg.counter("net/trafficgen/batches").value();
  const std::uint64_t churn0 =
      reg.counter("net/trafficgen/churn_events").value();

  TrafficGenConfig cfg;
  cfg.population.total_flows = 2048;
  cfg.rate_pps = 1000.0;
  cfg.churn_fpm = 60.0;
  cfg.stop = 1 * kSecond;
  TrafficGen gen = make_gen(cfg);
  gen.start();
  loop.run();

  EXPECT_EQ(reg.counter("net/trafficgen/packets").value() - packets0,
            gen.packets());
  EXPECT_EQ(reg.counter("net/trafficgen/batches").value() - batches0,
            gen.batches());
  EXPECT_EQ(reg.counter("net/trafficgen/churn_events").value() - churn0,
            gen.churn_events());
  EXPECT_EQ(reg.gauge("net/trafficgen/flows_live").value(), 2048);
}

TEST_F(GenFixture, TargetShardingIsStable) {
  add_sinks(5);
  TrafficGenConfig cfg;
  cfg.population.total_flows = 64;
  TrafficGen gen = make_gen(cfg);
  for (std::size_t r = 0; r < 64; ++r) {
    const FlowKey& f = gen.population().flow_at(r);
    const std::size_t t = gen.target_of(f);
    EXPECT_EQ(gen.target_of(f), t);
    EXPECT_LT(t, 5u);
  }
}

TEST(TrafficGen, StartWithoutTargetsThrows) {
  // Packets are sharded modulo the target count, so an empty target list
  // must be refused in every build type, scanners or not.
  for (const std::size_t scanners : {std::size_t{0}, std::size_t{2}}) {
    EventLoop loop;
    TrafficGenConfig cfg;
    cfg.scan_count = scanners;
    TrafficGen gen(loop, cfg);
    try {
      gen.start();
      ADD_FAILURE() << "start() accepted no targets, scanners=" << scanners;
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("no targets"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(loop.pending(), 0u);
  }
}

}  // namespace
}  // namespace mdn::net
