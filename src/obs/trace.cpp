#include "obs/trace.h"

namespace mdn::obs {

std::uint32_t Tracer::track(std::string_view name) {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i] == name) return static_cast<std::uint32_t>(i);
  }
  tracks_.emplace_back(name);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void Tracer::instant(std::string_view name, std::uint32_t track,
                     std::int64_t sim_ns) {
  if (!enabled_) return;
  events_.push_back({std::string(name), 'i', track, sim_ns, clock_(), 0});
}

void Tracer::complete(std::string_view name, std::uint32_t track,
                      std::int64_t sim_ns, std::int64_t wall_start_ns,
                      std::int64_t wall_dur_ns) {
  if (!enabled_) return;
  events_.push_back(
      {std::string(name), 'X', track, sim_ns, wall_start_ns, wall_dur_ns});
}

}  // namespace mdn::obs
