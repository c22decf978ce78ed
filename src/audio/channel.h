// Simulated acoustic channel: the air between speakers and microphones.
//
// The paper's testbed places cheap speakers (one per switch) around a
// listening microphone; tones attenuate with distance and mix additively
// with each other and with ambient noise.  This module reproduces exactly
// that physics at the fidelity the detectors care about: per-source
// inverse-distance pressure attenuation, additive superposition, looping
// ambient beds (fan noise, the background song), optional finite
// speed-of-sound delay, and a microphone model with self-noise and ADC
// quantisation.
//
// Sources live at 2-D positions.  The classic single-listener API
// renders at the origin; render_at() supports the §8 research direction
// of "an array of microphones listening to different groups of
// switches" — each microphone hears every source at its own distance.
//
// SPL convention: a waveform amplitude of 1.0 corresponds to 94 dB SPL at
// the 1 m reference distance (the standard microphone calibration level).
// The paper plays tones of "at least 30 dB"; datacenter noise "may exceed
// 85 dBA".
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "audio/emission_tag.h"
#include "audio/rng.h"
#include "audio/waveform.h"

namespace mdn::audio {

/// Linear amplitude for a sound pressure level, per the 94 dB == 1.0
/// convention above.
double spl_to_amplitude(double db_spl) noexcept;

/// Sound pressure level of a linear amplitude.
double amplitude_to_spl(double amplitude) noexcept;

/// A point on the machine-room floor, in metres.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

inline double distance_m(const Position& a, const Position& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

using SourceId = std::uint32_t;

class AcousticChannel {
 public:
  explicit AcousticChannel(double sample_rate);

  double sample_rate() const noexcept { return sample_rate_; }

  /// Registers a speaker `distance_m` metres from the origin (the
  /// default microphone position).  Pressure falls off as
  /// 1/max(distance, 0.1 m).
  SourceId add_source(std::string name, double distance_m);

  /// Registers a speaker at an explicit floor position.
  SourceId add_source_at(std::string name, Position position);

  void set_source_distance(SourceId id, double distance_m);
  void set_source_position(SourceId id, Position position);
  Position source_position(SourceId id) const;
  const std::string& source_name(SourceId id) const;
  std::size_t source_count() const noexcept { return sources_.size(); }

  /// Finite speed of sound in m/s; 0 (default) disables propagation
  /// delay (instantaneous arrival, the single-rack approximation).
  void set_speed_of_sound(double mps) noexcept { speed_of_sound_ = mps; }
  double speed_of_sound() const noexcept { return speed_of_sound_; }

  /// Schedules `sound` to play from source `id` starting at
  /// `start_time_s` (channel time).  A set `tag` is provenance (the
  /// journal id of the emission record) that listeners recover with
  /// collect_tags().  The channel keeps the immutable waveform by
  /// reference, so one template (mp::ToneBank) backs every emission of
  /// the same tone.
  void emit(SourceId id, std::shared_ptr<const Waveform> sound,
            double start_time_s, EmissionTag tag = {});

  /// Same, for a waveform the caller hands over.
  void emit(SourceId id, Waveform sound, double start_time_s,
            EmissionTag tag = {});

  /// Copies the tags of every tagged emission heard at `listener`
  /// during [start_s, end_s) into `out` (at most out.size(); excess is
  /// truncated).  Each emission is tested over its arrival interval,
  /// delayed by the same flight time render_at() applies.  Returns the
  /// number written.  Zero-allocation: this is how a listening
  /// controller recovers the ground-truth tone ids for the block it
  /// just recorded.
  std::size_t collect_tags(Position listener, double start_s, double end_s,
                           std::span<EmissionTag> out) const noexcept;

  /// Adds an ambient bed heard at unit gain from everywhere (room
  /// noise).  When `loop` is true the waveform repeats forever from
  /// `start_time_s` onwards.
  void add_ambient(Waveform sound, bool loop = true,
                   double start_time_s = 0.0);

  /// Pressure at the origin over [start_time_s, start_time_s+duration_s).
  Waveform render(double start_time_s, double duration_s) const;

  /// Pressure at an arbitrary listener position (microphone arrays).
  Waveform render_at(Position listener, double start_time_s,
                     double duration_s) const;

  /// Drops all scheduled (non-ambient) emissions.
  void clear_emissions();

  /// End time of the last scheduled non-ambient emission, excluding
  /// propagation delay (0 if none).
  double last_emission_end_s() const noexcept;

 private:
  struct Source {
    std::string name;
    Position position;
  };
  struct Emission {
    std::shared_ptr<const Waveform> sound;  ///< never null
    double start_s = 0.0;
    SourceId source = 0;
    bool ambient = false;
    bool loop = false;
    EmissionTag tag{};
  };

  /// Propagation delay from `source` to `listener` (0 when the speed of
  /// sound is 0).
  double flight_s(SourceId source, Position listener) const noexcept;

  double sample_rate_;
  double speed_of_sound_ = 0.0;
  std::vector<Source> sources_;
  std::vector<Emission> emissions_;
  std::vector<Emission> ambient_;
};

struct MicrophoneSpec {
  double gain = 1.0;
  double noise_floor_rms = 1e-4;  ///< self-noise (~14 dB SPL equivalent)
  int adc_bits = 16;              ///< 0 disables quantisation
  double clip_level = 8.0;        ///< analog front-end clipping
  std::uint64_t seed = 42;
  Position position{};            ///< where this microphone listens
};

/// Converts channel pressure into recorded samples, adding self-noise,
/// clipping and quantisation.  Stateful: consecutive record() calls use
/// fresh noise.
class Microphone {
 public:
  Microphone(const MicrophoneSpec& spec, double sample_rate);

  Waveform record(const AcousticChannel& channel, double start_time_s,
                  double duration_s);

  const MicrophoneSpec& spec() const noexcept { return spec_; }

 private:
  MicrophoneSpec spec_;
  double sample_rate_;
  Rng rng_;
};

}  // namespace mdn::audio
