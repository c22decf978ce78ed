// Umbrella header for the Music-Defined Networking core library.
//
// Quickstart:
//   1. Build an audio::AcousticChannel and a net::Network.
//   2. Allocate per-switch frequency sets in a core::FrequencyPlan.
//   3. Give each switch an mp::PiSpeakerBridge + mp::MpEmitter.
//   4. Create a core::MdnController listening on the channel.
//   5. Attach applications (PortKnockingApp, HeavyHitterDetector, ...).
//   6. Run the event loop.
#pragma once

#include "mdn/controller.h"
#include "mdn/ddos.h"
#include "mdn/deployment.h"
#include "mdn/fan_anomaly.h"
#include "mdn/fan_failure.h"
#include "mdn/fleet.h"
#include "mdn/frequency_plan.h"
#include "mdn/heavy_hitter.h"
#include "mdn/melody_codec.h"
#include "mdn/mic_array.h"
#include "mdn/music_fsm.h"
#include "mdn/port_knocking.h"
#include "mdn/relay.h"
#include "mdn/port_scan.h"
#include "mdn/tdm.h"
#include "mdn/tone_detector.h"
#include "mdn/traffic_engineering.h"
