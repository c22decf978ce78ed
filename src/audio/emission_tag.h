// Provenance tag riding on an acoustic emission.
//
// The observability journal (obs/journal.h) stamps every played tone
// with a record id; that id travels with the emission through the
// acoustic channel and with recorded blocks into the controller or
// rt::StreamRuntime::submit_block, so a detection (or a backpressure
// drop) can cite the exact emitted tone that caused it.  The tag lives
// here, in the audio layer, so audio stays free of an obs dependency:
// `cause` is opaque here — 0 means untagged.
#pragma once

#include <cstdint>

namespace mdn::audio {

struct EmissionTag {
  std::uint64_t cause = 0;     ///< obs::Journal record id (0 = untagged)
  double frequency_hz = 0.0;   ///< nominal tone frequency, for matching
};

}  // namespace mdn::audio
