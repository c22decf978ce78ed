// Umbrella header for mdn::rt — the parallel streaming detection
// runtime: lock-free ring buffers, the sharded runtime and the
// deterministic ordered event merge.
#pragma once

#include "rt/ordered_merge.h"
#include "rt/ring_buffer.h"
#include "rt/stream_runtime.h"
