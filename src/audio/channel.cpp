#include "audio/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mdn::audio {

namespace {
constexpr double kReferenceSpl = 94.0;  // dB SPL at amplitude 1.0
constexpr double kMinDistanceM = 0.1;

double distance_gain(double d) noexcept {
  return 1.0 / std::max(d, kMinDistanceM);
}
}  // namespace

double spl_to_amplitude(double db_spl) noexcept {
  return std::pow(10.0, (db_spl - kReferenceSpl) / 20.0);
}

double amplitude_to_spl(double amplitude) noexcept {
  if (amplitude <= 0.0) return -1e9;
  return kReferenceSpl + 20.0 * std::log10(amplitude);
}

AcousticChannel::AcousticChannel(double sample_rate)
    : sample_rate_(sample_rate) {
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("AcousticChannel: sample rate");
  }
}

SourceId AcousticChannel::add_source(std::string name, double distance_m) {
  if (distance_m < 0.0) {
    throw std::invalid_argument("add_source: negative distance");
  }
  return add_source_at(std::move(name), Position{distance_m, 0.0});
}

SourceId AcousticChannel::add_source_at(std::string name,
                                        Position position) {
  sources_.push_back({std::move(name), position});
  return static_cast<SourceId>(sources_.size() - 1);
}

void AcousticChannel::set_source_distance(SourceId id, double distance_m) {
  sources_.at(id).position = Position{distance_m, 0.0};
}

void AcousticChannel::set_source_position(SourceId id, Position position) {
  sources_.at(id).position = position;
}

Position AcousticChannel::source_position(SourceId id) const {
  return sources_.at(id).position;
}

const std::string& AcousticChannel::source_name(SourceId id) const {
  return sources_.at(id).name;
}

void AcousticChannel::emit(SourceId id, std::shared_ptr<const Waveform> sound,
                           double start_time_s, EmissionTag tag) {
  if (sound == nullptr) {
    throw std::invalid_argument("emit: null sound");
  }
  if (sound->sample_rate() != sample_rate_) {
    throw std::invalid_argument("emit: sample rate mismatch");
  }
  if (id >= sources_.size()) {
    throw std::out_of_range("emit: unknown source");
  }
  emissions_.push_back(
      {std::move(sound), start_time_s, id, /*ambient=*/false,
       /*loop=*/false, tag});
}

void AcousticChannel::emit(SourceId id, Waveform sound, double start_time_s,
                           EmissionTag tag) {
  emit(id, std::make_shared<const Waveform>(std::move(sound)), start_time_s,
       tag);
}

double AcousticChannel::flight_s(SourceId source,
                                 Position listener) const noexcept {
  if (speed_of_sound_ <= 0.0) return 0.0;
  return distance_m(sources_[source].position, listener) / speed_of_sound_;
}

std::size_t AcousticChannel::collect_tags(
    Position listener, double start_s, double end_s,
    std::span<EmissionTag> out) const noexcept {
  std::size_t n = 0;
  for (const Emission& e : emissions_) {
    if (e.tag.cause == 0) continue;
    const double arrive_s = e.start_s + flight_s(e.source, listener);
    const double e_end =
        arrive_s + static_cast<double>(e.sound->size()) / sample_rate_;
    if (arrive_s < end_s && e_end > start_s) {
      if (n == out.size()) break;  // truncate: fixed listener scratch
      out[n++] = e.tag;
    }
  }
  return n;
}

void AcousticChannel::add_ambient(Waveform sound, bool loop,
                                  double start_time_s) {
  if (sound.sample_rate() != sample_rate_) {
    throw std::invalid_argument("add_ambient: sample rate mismatch");
  }
  if (sound.empty()) return;
  ambient_.push_back({std::make_shared<const Waveform>(std::move(sound)),
                      start_time_s, 0, /*ambient=*/true, loop});
}

Waveform AcousticChannel::render(double start_time_s,
                                 double duration_s) const {
  return render_at(Position{}, start_time_s, duration_s);
}

Waveform AcousticChannel::render_at(Position listener, double start_time_s,
                                    double duration_s) const {
  const auto n = static_cast<std::size_t>(
      std::llround(std::max(0.0, duration_s) * sample_rate_));
  Waveform out(sample_rate_, n);
  if (n == 0) return out;

  const auto mix_emission = [&](const Emission& e) {
    const Waveform& sound = *e.sound;
    if (sound.empty()) return;
    double gain = 1.0;
    double delay_s = 0.0;
    if (!e.ambient) {
      gain = distance_gain(distance_m(sources_[e.source].position, listener));
      delay_s = flight_s(e.source, listener);
    }
    const auto len = static_cast<std::ptrdiff_t>(sound.size());
    // Sample index (relative to the emission) aligned with out[0].
    const auto rel0 = static_cast<std::ptrdiff_t>(std::llround(
        (start_time_s - e.start_s - delay_s) * sample_rate_));
    if (!e.loop) {
      // Only the window samples the emission overlaps: a busy room holds
      // thousands of emissions, and almost none overlap a given window.
      const auto lo = std::max<std::ptrdiff_t>(0, -rel0);
      const auto hi =
          std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(n), len - rel0);
      for (std::ptrdiff_t i = lo; i < hi; ++i) {
        out[static_cast<std::size_t>(i)] +=
            gain * sound[static_cast<std::size_t>(rel0 + i)];
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::ptrdiff_t rel = rel0 + static_cast<std::ptrdiff_t>(i);
      if (rel < 0) rel = (rel % len + len) % len;
      else rel %= len;
      out[i] += gain * sound[static_cast<std::size_t>(rel)];
    }
  };

  for (const auto& e : emissions_) mix_emission(e);
  for (const auto& e : ambient_) mix_emission(e);
  return out;
}

void AcousticChannel::clear_emissions() { emissions_.clear(); }

double AcousticChannel::last_emission_end_s() const noexcept {
  double end = 0.0;
  for (const auto& e : emissions_) {
    end = std::max(end, e.start_s + e.sound->duration_s());
  }
  return end;
}

Microphone::Microphone(const MicrophoneSpec& spec, double sample_rate)
    : spec_(spec), sample_rate_(sample_rate), rng_(spec.seed) {
  if (sample_rate <= 0.0) {
    throw std::invalid_argument("Microphone: sample rate");
  }
}

Waveform Microphone::record(const AcousticChannel& channel,
                            double start_time_s, double duration_s) {
  if (channel.sample_rate() != sample_rate_) {
    throw std::invalid_argument("Microphone::record: sample rate mismatch");
  }
  Waveform w = channel.render_at(spec_.position, start_time_s, duration_s);
  const double lsb =
      spec_.adc_bits > 0 ? spec_.clip_level / std::pow(2.0, spec_.adc_bits - 1)
                         : 0.0;
  for (auto& s : w.samples()) {
    s *= spec_.gain;
    s += spec_.noise_floor_rms * rng_.gaussian();
    s = std::clamp(s, -spec_.clip_level, spec_.clip_level);
    if (lsb > 0.0) s = std::round(s / lsb) * lsb;
  }
  return w;
}

}  // namespace mdn::audio
