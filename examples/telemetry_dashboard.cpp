// Music-defined telemetry dashboard (§5): one listener, three detectors —
// and the whole run instrumented through mdn::obs.
//
// A switch carries a mixed workload — an elephant flow, background mice,
// and (halfway through) a port scan.  Heavy-hitter, port-scan and
// superspreader detectors run simultaneously on disjoint frequency sets
// of the same switch, sharing a single microphone.  At the end the
// dashboard is rendered from the metrics registry (not ad-hoc counters),
// and the run is exported as Prometheus text, JSONL and a Chrome
// trace_event timeline you can open in chrome://tracing / Perfetto.
//
// The flight recorder runs too: the journal captures every hop from the
// reporters' emitted tones to the FlowMod the dashboard installs against
// the heavy hitter, the scoreboard reconciles emitted vs detected per
// watch, and the causal chain of the last FlowMods can be dumped with
//
//   ./telemetry_dashboard explain [n]     (default n=1)
//
// Run: ./telemetry_dashboard [explain [n]]
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "audio/audio.h"
#include "dsp/simd.h"
#include "mdn/mdn.h"
#include "mp/mp.h"
#include "net/net.h"
#include "obs/obs.h"
#include "sdn/sdn.h"

namespace {

// Renders every registry metric under `prefix` as a dashboard section.
void render_section(const mdn::obs::Snapshot& snap,
                    const std::string& title, const std::string& prefix) {
  std::printf("\n  [%s]\n", title.c_str());
  for (const auto& m : snap) {
    if (m.name.rfind(prefix, 0) != 0) continue;
    switch (m.kind) {
      case mdn::obs::Kind::kCounter:
        std::printf("    %-44s %12llu\n", m.name.c_str(),
                    static_cast<unsigned long long>(m.counter));
        break;
      case mdn::obs::Kind::kGauge:
        std::printf("    %-44s %12lld  (max %lld)\n", m.name.c_str(),
                    static_cast<long long>(m.gauge),
                    static_cast<long long>(m.gauge_max));
        break;
      case mdn::obs::Kind::kHistogram:
        if (m.hist.count == 0) break;
        std::printf("    %-44s n=%llu p50=%.3f ms p90=%.3f ms p99=%.3f ms\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(m.hist.count),
                    m.hist.quantile(0.5) / 1e6, m.hist.quantile(0.9) / 1e6,
                    m.hist.quantile(0.99) / 1e6);
        break;
    }
  }
}

std::uint64_t counter_value(const mdn::obs::Snapshot& snap,
                            const std::string& name) {
  for (const auto& m : snap) {
    if (m.name == name) return m.counter;
  }
  return 0;
}

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [explain [n]]\n"
               "  n  how many recent flow-mod causal chains to dump;\n"
               "     a positive integer (default 1)\n",
               prog);
  return 2;
}

// Strict positive-integer parse: rejects signs, junk suffixes ("3x"),
// empty strings and zero instead of silently defaulting like atoi.
bool parse_count(const char* s, std::size_t* out) {
  if (s == nullptr || *s == '\0' || !std::isdigit(static_cast<unsigned char>(*s))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v == 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mdn;
  constexpr double kSampleRate = 48000.0;

  std::size_t explain_n = 0;
  if (argc > 1) {
    if (std::strcmp(argv[1], "explain") != 0 || argc > 3) {
      return usage(argv[0]);
    }
    explain_n = 1;
    if (argc == 3 && !parse_count(argv[2], &explain_n)) {
      std::fprintf(stderr, "telemetry_dashboard: bad count '%s'\n", argv[2]);
      return usage(argv[0]);
    }
  }

  // Fresh registry state so the dashboard shows this run only, sim-time
  // tracing on, and the flight recorder rolling: the whole experiment
  // becomes a timeline plus a causal journal.
  obs::Registry::global().reset();
  obs::Journal& journal = obs::Journal::global();
  journal.enable(std::size_t{1} << 16);
  journal.clear();

  net::Network net;
  net.loop().tracer().enable();

  audio::AcousticChannel channel(kSampleRate);
  // Office-grade ambience.
  channel.add_ambient(audio::generate_office(
      2.0, kSampleRate, audio::spl_to_amplitude(45.0), 3));

  net::Host* h1 = nullptr;
  net::Host* h2 = nullptr;
  auto switches = net::build_chain(net, 1, &h1, &h2);
  net::Switch& sw = *switches.front();

  // Actuation path: the dashboard reacts to the first heavy-hitter alert
  // by installing a drop rule over a plain OpenFlow session — the
  // journal ties that FlowMod all the way back to the emitted tones.
  sdn::Controller null_controller;
  sdn::ControlChannel sdn_channel(net.loop(), net::kMillisecond);
  const sdn::DatapathId dpid = sdn_channel.attach(sw, null_controller);

  // Disjoint frequency sets: one per application (§3: "each task uses a
  // different set of frequencies").
  core::FrequencyPlan plan({.base_hz = 1000.0, .spacing_hz = 20.0});
  const auto hh_dev = plan.add_device("s1/heavy-hitter", 24);
  const auto ps_dev = plan.add_device("s1/port-scan", 24);
  const auto ss_dev = plan.add_device("s1/superspreader", 24);

  const auto spk = channel.add_source("s1-speaker", 0.5);
  mp::PiSpeakerBridge bridge(net.loop(), channel, spk);
  mp::MpEmitter hh_emitter(net.loop(), bridge, 100 * net::kMillisecond);
  mp::MpEmitter ps_emitter(net.loop(), bridge, 60 * net::kMillisecond);
  mp::MpEmitter ss_emitter(net.loop(), bridge, 60 * net::kMillisecond);

  // Health/SLO engine: the controller feeds per-block signal estimators
  // for its one microphone; rules judge the channel itself (a noisy or
  // dead mic shows up here before any detector misbehaves).
  obs::HealthConfig hcfg;
  hcfg.watch_count = 3 * 24;  // hh + ps + ss watch lists
  obs::Health health(hcfg);
  health.add_mic("s1-mic");
  health.add_slo({.name = "noise_floor_high",
                  .metric = obs::SloSpec::Metric::kNoiseFloor,
                  .op = obs::SloSpec::Op::kAbove,
                  .threshold = audio::spl_to_amplitude(70.0),
                  .for_s = 0.25,
                  .severity = obs::HealthState::kDegraded});
  health.add_slo({.name = "mic_silent",
                  .metric = obs::SloSpec::Metric::kSilenceS,
                  .op = obs::SloSpec::Op::kAbove,
                  .threshold = 4.0,
                  .for_s = 0.0,
                  .severity = obs::HealthState::kFailed});
  // Stage-latency SLO: the profiler's capture p99 (published below by
  // the periodic attribution poll) must stay under 150 ms.
  health.add_slo({.name = "capture_p99_slow",
                  .metric = obs::SloSpec::Metric::kStageLatencyP99,
                  .op = obs::SloSpec::Op::kAbove,
                  .threshold = 0.150,
                  .for_s = 0.0,
                  .severity = obs::HealthState::kDegraded,
                  .stage = obs::LatencyStage::kCapture});

  core::MdnController::Config ccfg;
  ccfg.detector.sample_rate = kSampleRate;
  ccfg.health = &health;
  core::MdnController controller(net.loop(), channel, ccfg);

  core::HeavyHitterConfig hh_cfg;
  hh_cfg.window_s = 2.0;
  hh_cfg.threshold = 12;
  core::HeavyHitterReporter hh_reporter(sw, hh_emitter, plan, hh_dev,
                                        hh_cfg);
  core::HeavyHitterDetector hh_detector(controller, plan, hh_dev, hh_cfg);
  obs::CauseId hh_flow_mod = 0;
  hh_detector.on_alert([&](const core::HeavyHitterDetector::Alert& a) {
    std::printf("[%6.2f s] HEAVY HITTER  bin %zu (%.0f Hz), %zu tones in "
                "window\n",
                a.time_s, a.bin, a.frequency_hz, a.count_in_window);
    if (hh_flow_mod != 0) return;
    // Throttle the elephant: the rule's provenance is the alert record,
    // which in turn cites the detected (and emitted) tone.
    net::FlowEntry drop;
    drop.priority = 300;
    drop.match.dst_port = 80;
    drop.match.proto = net::IpProto::kTcp;
    drop.actions = {net::Action::drop()};
    hh_flow_mod = sdn_channel.send_flow_mod(dpid, sdn::FlowMod::add(drop),
                                            a.cause);
  });

  core::PortScanConfig ps_cfg;
  ps_cfg.first_port = 7000;
  ps_cfg.window_s = 3.0;
  ps_cfg.distinct_threshold = 10;
  core::PortScanReporter ps_reporter(sw, ps_emitter, plan, ps_dev, ps_cfg);
  core::PortScanDetector ps_detector(controller, plan, ps_dev, ps_cfg);
  ps_detector.on_alert([&](const core::PortScanDetector::Alert& a) {
    std::printf("[%6.2f s] PORT SCAN     %zu distinct ports probed\n",
                a.time_s, a.distinct_tones);
  });

  core::SuperspreaderConfig ss_cfg;
  ss_cfg.k = 15;
  ss_cfg.window_s = 4.0;
  core::SuperspreaderReporter ss_reporter(sw, ss_emitter, plan, ss_dev,
                                          ss_cfg);
  core::SuperspreaderDetector ss_detector(controller, plan, ss_dev, ss_cfg);
  ss_detector.on_alert([&](const core::SuperspreaderDetector::Alert& a) {
    std::printf("[%6.2f s] SUPERSPREADER %zu distinct destinations\n",
                a.time_s, a.distinct_bins);
  });

  controller.start();

  // --- Timeline: sim-time series over the registry --------------------
  // Four fleet-relevant instruments sampled every 250 ms of sim time
  // into a bounded ring; rates and sparklines are derived at export.
  auto& registry = obs::Registry::global();
  obs::Timeline timeline({.capacity = 64});
  timeline.track_counter(registry, "net/switch/s1/forwarded");
  timeline.track_counter(registry, "mp/bridge/tones_played");
  timeline.track_counter(registry, "mdn/controller/blocks");
  timeline.track_counter(registry, "mdn/controller/onsets");
  const net::SimTime run_end = net::from_seconds(8.5);
  net.loop().schedule_periodic(
      net::kMillisecond * 250, net::kMillisecond * 250, [&, run_end] {
        timeline.sample(net.loop().now());
        return net.loop().now() < run_end;  // let the loop drain at stop
      });

  // Periodic latency attribution poll: walk fresh detection chains and
  // publish the capture-stage p99 so the capture_p99_slow SLO sees it.
  net.loop().schedule_periodic(net::kSecond, net::kSecond, [&, run_end] {
    obs::LatencyProfiler poll_profiler(journal);
    poll_profiler.profile(obs::JournalKind::kToneDetected);
    const auto capture =
        poll_profiler.stage_stats(obs::LatencyStage::kCapture);
    if (capture.count != 0) {
      health.publish_stage_latency(obs::LatencyStage::kCapture,
                                   capture.p99_ns / 1e9);
    }
    return net.loop().now() < run_end;
  });

  // --- Workload ------------------------------------------------------
  // Elephant + mice from t=0.
  const net::FlowKey elephant{h1->ip(), h2->ip(), 41000, 80,
                              net::IpProto::kTcp};
  std::vector<net::FlowMixSource::WeightedFlow> flows{{elephant, 15.0}};
  for (std::uint16_t p = 81; p < 85; ++p) {
    flows.push_back({{h1->ip(), h2->ip(), 41000, p, net::IpProto::kTcp},
                     1.0});
  }
  net::FlowMixSource mix(*h1, flows, 200.0, 0, net::from_seconds(8.0), 17);
  mix.start();

  // Port scan kicks in at t=4.
  net::SourceConfig scan_cfg;
  scan_cfg.flow = {net::make_ipv4(172, 16, 0, 66), h2->ip(), 50000, 0,
                   net::IpProto::kTcp};
  scan_cfg.start = net::from_seconds(4.0);
  scan_cfg.stop = net::from_seconds(8.0);
  net::PortScanSource scan(*h1, scan_cfg, 7000, 7030,
                           100 * net::kMillisecond);
  scan.start();

  std::printf("listening... (elephant flow from t=0, scan from t=4)\n");
  net.loop().schedule_at(net::from_seconds(8.5),
                         [&] { controller.stop(); });
  net.loop().run();

  std::printf("\nalerts:\n");
  std::printf("  heavy-hitter alerts : %zu (elephant bin %zu)\n",
              hh_detector.alerts().size(),
              hh_reporter.bin_for(elephant));
  std::printf("  port-scan alerts    : %zu\n", ps_detector.alerts().size());
  std::printf("  superspreader alerts: %zu\n", ss_detector.alerts().size());
  std::printf("  throttle flow mod   : %s (journal record %llu)\n",
              hh_flow_mod != 0 ? "installed" : "missing",
              static_cast<unsigned long long>(hh_flow_mod));

  // --- Scoreboard: emitted vs detected, from the journal -------------
  // export_to() feeds the registry before the snapshot so the counts and
  // latency histograms ride the standard exporters too.
  const obs::Scoreboard board = obs::Scoreboard::build(journal);
  board.export_to(obs::Registry::global());
  const std::string mic_names[] = {std::string("s1-mic")};
  std::printf("\nscoreboard (ground truth vs heard, per watch):\n%s",
              board.render(mic_names).c_str());

  // --- Health panel: the SLO engine's view of the acoustic channel ----
  health.poll();
  std::printf("\n%s", health.render().c_str());

  // --- Latency attribution: where did the milliseconds go? ------------
  // The profiler replays the journal's cause chains and attributes each
  // hop's sim-time delta to a pipeline stage; the waterfall below is the
  // heavy-hitter FlowMod decomposed hop by hop.
  obs::LatencyProfiler profiler(journal);
  profiler.profile(obs::JournalKind::kFlowMod);
  std::printf("\nlatency attribution (stage histograms, %zu action(s)):\n%s",
              profiler.actions_profiled(), profiler.render().c_str());
  if (hh_flow_mod != 0) {
    std::printf("\nwaterfall: heavy-hitter flow mod #%llu\n%s",
                static_cast<unsigned long long>(hh_flow_mod),
                profiler.breakdown(hh_flow_mod).render().c_str());
  }

  // --- Timeline panel: registry counters over sim time ----------------
  std::printf("\ntimeline sparklines (%zu rows, %llu dropped):\n%s",
              timeline.size(),
              static_cast<unsigned long long>(timeline.dropped()),
              timeline.render_sparklines().c_str());

  // --- Dashboard: rendered from the metrics registry -----------------
  const auto snap = obs::Registry::global().snapshot();
  std::printf("\ndashboard (from the obs registry):\n");
  render_section(snap, "event loop", "net/loop/");
  render_section(snap, "switch s1", "net/switch/s1/");
  render_section(snap, "MDN controller", "mdn/controller/");
  render_section(snap, "DSP", "dsp/");
  // The dsp/simd/dispatch gauge above is the Isa enum; spell it out.
  std::printf("    %-44s %12s\n", "dsp/simd/dispatch (isa)",
              dsp::simd::isa_name(dsp::simd::active_isa()));
  render_section(snap, "music protocol", "mp/");
  render_section(snap, "health", "health/");

  // --- Exports -------------------------------------------------------
  // The .prom file carries the registry metrics plus the scoreboard's
  // labeled per-(mic, watch) series.
  if (obs::write_file("telemetry_dashboard.prom",
                      obs::to_prometheus(snap) +
                          board.to_prometheus(mic_names) +
                          health.to_prometheus() +
                          profiler.to_prometheus() +
                          timeline.to_prometheus())) {
    std::printf("\nwrote telemetry_dashboard.prom\n");
  }
  if (obs::write_file("telemetry_dashboard.timeline.jsonl",
                      timeline.to_timeline_jsonl())) {
    std::printf("wrote telemetry_dashboard.timeline.jsonl "
                "(%zu rows, %zu tracks)\n",
                timeline.size(), timeline.track_count());
  }
  if (obs::write_file("telemetry_dashboard.waterfall.trace.json",
                      obs::to_chrome_trace(obs::Tracer(), nullptr,
                                           &profiler))) {
    std::printf("wrote telemetry_dashboard.waterfall.trace.json "
                "(per-stage spans; load in chrome://tracing)\n");
  }
  if (obs::write_file("telemetry_dashboard.health.jsonl",
                      health.to_health_jsonl())) {
    std::printf("wrote telemetry_dashboard.health.jsonl "
                "(%zu alert(s))\n", health.alerts().size());
  }
  if (obs::write_file("telemetry_dashboard.metrics.jsonl",
                      obs::to_jsonl(snap))) {
    std::printf("wrote telemetry_dashboard.metrics.jsonl\n");
  }
  if (obs::write_file("telemetry_dashboard.trace.json",
                      obs::to_chrome_trace(net.loop().tracer(), &journal))) {
    std::printf("wrote telemetry_dashboard.trace.json "
                "(journal flow arrows overlaid; load in chrome://tracing "
                "or ui.perfetto.dev)\n");
  }
  if (obs::write_file("telemetry_dashboard.journal.jsonl",
                      obs::to_journal_jsonl(journal))) {
    std::printf("wrote telemetry_dashboard.journal.jsonl "
                "(canonical flight-recorder export, %zu records)\n",
                journal.size());
  }

  // --- explain [n]: causal chains of the last n FlowMods -------------
  if (explain_n > 0) {
    const auto mods = journal.recent_of(obs::JournalKind::kFlowMod,
                                        explain_n);
    std::printf("\nexplain: last %zu flow mod(s), oldest first\n",
                mods.size());
    if (mods.empty()) std::printf("  (no flow mods in the journal)\n");
    for (const obs::CauseId id : mods) {
      std::printf("-- flow mod #%llu --\n%s",
                  static_cast<unsigned long long>(id),
                  obs::explain_text(journal, id).c_str());
    }
  }

  // --- Workload panel: the fleet traffic engine at a glance -----------
  // A second, fleet-scale experiment: TrafficGen (Zipf + churn + one
  // scanner) drives two acoustic rooms of switches, and the mic-scoped
  // scoreboard summarises per-room precision/recall.  The exports above
  // are already written, so this panel's counters stay out of them.
  {
    journal.clear();
    net::EventLoop fleet_loop;
    core::FleetConfig fcfg;
    fcfg.rooms = 2;
    fcfg.switches_per_room = 3;
    fcfg.emitter_min_gap = 50 * net::kMillisecond;
    core::Fleet fleet(fleet_loop, fcfg);

    net::TrafficGenConfig tcfg;
    tcfg.population.total_flows = 4096;
    tcfg.population.zipf_skew = 1.26;
    tcfg.rate_pps = 4000.0;
    tcfg.churn_fpm = 1200.0;
    tcfg.stop = net::from_seconds(2.0);
    tcfg.seed = 42;
    tcfg.scan_count = 1;
    tcfg.scan_pps = 400.0;
    net::TrafficGen gen(fleet_loop, tcfg);
    for (std::size_t s = 0; s < fleet.switch_count(); ++s) {
      gen.add_target(fleet.switch_at(s));
    }
    fleet.start();
    gen.start();
    fleet.stop_at(net::from_seconds(2.15));
    fleet_loop.run();

    std::printf("\nworkload panel (fleet: %zu rooms x %zu switches, "
                "%zu flows, zipf %.2f, churn %.0f fpm):\n",
                fleet.room_count(), fcfg.switches_per_room,
                tcfg.population.total_flows, tcfg.population.zipf_skew,
                tcfg.churn_fpm);
    render_section(obs::Registry::global().snapshot(), "workload engine",
                   "net/trafficgen/");

    obs::ScoreboardConfig scfg;
    scfg.watch_hz = fleet.watch_hz();
    scfg.tolerance_hz = 10.0;
    scfg.mics = fleet.room_count();
    const auto fleet_board = obs::Scoreboard::build(journal, scfg);
    std::printf("\n  [fleet scoreboard]\n");
    for (std::size_t r = 0; r < fleet.room_count(); ++r) {
      const auto t = fleet_board.totals(r);
      std::printf("    room %zu mic: recall %.3f  precision %.3f  "
                  "(%llu/%llu tones heard)\n",
                  r, t.recall(), t.precision(),
                  static_cast<unsigned long long>(t.detected),
                  static_cast<unsigned long long>(t.emitted));
    }
    const auto g = fleet_board.grand_totals();
    std::printf("    fleet:       recall %.3f  precision %.3f  "
                "hh alerts %llu  ps alerts %llu\n",
                g.recall(), g.precision(),
                static_cast<unsigned long long>(fleet.hh_alert_count()),
                static_cast<unsigned long long>(fleet.ps_alert_count()));
  }

  const bool ok = !hh_detector.alerts().empty() &&
                  !ps_detector.alerts().empty() && hh_flow_mod != 0 &&
                  counter_value(snap, "mp/bridge/tones_played") > 0 &&
                  counter_value(snap, "mdn/controller/blocks") > 0;
  std::printf("%s\n", ok ? "dashboard caught both events out-of-band"
                         : "UNEXPECTED: something was missed");
  return ok ? 0 : 1;
}
