// Seeded-violation fixture for scripts/mdn_lint.py (real-time contract
// over the real obs::Stage in src/obs/trace.h).
//
// This file is NOT part of the build.  lint.traced_stage_fixture_fails
// lints it together with the source tree and requires the linter to
// follow obs::Stage::scope() into the tracer's span store: recording a
// span allocates, so MDN_REALTIME code must time itself with
// realtime_scope(), which never touches the tracer.  If the linter ever
// stops seeing through scope(), that test turns red.
//
// The construct below is a deliberate violation and must NOT be added to
// scripts/mdn_lint_allowlist.txt.

#include "common/annotations.h"
#include "obs/trace.h"

namespace mdn::lintfixture {

struct TracedHotPath {
  obs::Stage stage;

  MDN_REALTIME void bad_process() {
    const auto timed = stage.scope();  // VIOLATION: span store allocates
  }
};

}  // namespace mdn::lintfixture
