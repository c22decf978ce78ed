// Umbrella header for mdn::obs — the observability layer.
//
//   metrics.h    counters / gauges / log-bucketed histograms, Registry
//   trace.h      sim-time spans and instant events (per-EventLoop Tracer)
//                and obs::Stage, the stage timer feeding histogram + span
//   journal.h    causal provenance journal (CauseId flight recorder)
//   latency.h    per-stage latency attribution over journal cause chains
//   timeline.h   bounded sim-time sampling of registry instruments
//   health.h     per-mic signal estimators + SLO/alert engine
//   scoreboard.h emitted-vs-detected ground-truth reconciliation
//   export.h     Prometheus text, JSONL, JSON, Chrome trace_event JSON,
//                canonical journal.jsonl
//
// Metric naming scheme: hierarchical slash-separated paths,
// "<layer>/<component>[/<instance>]/<quantity>[_<unit>]", e.g.
//   net/loop/events_dispatched        counter
//   net/loop/callback_wall_ns         histogram
//   net/switch/s1/forwarded           counter
//   net/switch/s1/port0/queue_depth   gauge
//   dsp/fft/wall_ns                   histogram (Fig 2b comes from this)
//   mdn/controller/blocks             counter
//   mp/bridge/tones_played            counter
#pragma once

#include "obs/export.h"
#include "obs/health.h"
#include "obs/journal.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/scoreboard.h"
#include "obs/timeline.h"
#include "obs/trace.h"
