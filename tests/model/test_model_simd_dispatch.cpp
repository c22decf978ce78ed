// Model-checked SIMD dispatch initialization: concurrent first calls to
// active_kernels()/active_isa() race on the lazily-initialized dispatch
// pointer (active_isa() is derived from it).  The init is idempotent by
// design (every initializer stores the same table for this process), so
// across every interleaving all callers must end up on the same kernel
// table, consistent with the reported ISA.

#include <gtest/gtest.h>

#include "common/check.h"
#include "dsp/simd.h"
#include "model_test_util.h"

namespace mdn {
namespace {

TEST(ModelSimdDispatch, ConcurrentLazyInitConverges) {
  check::Options options;
  options.sleep_sets = false;  // read-mostly body: count raw interleavings
  options.max_preemptions = 3;  // three readers: 6 overruns max_schedules
  const check::Result result = check::explore(options, [] {
    dsp::simd::reset_dispatch_for_testing();
    const dsp::simd::Kernels* seen[3] = {nullptr, nullptr, nullptr};
    dsp::simd::Isa isa[3] = {dsp::simd::Isa::kScalar, dsp::simd::Isa::kScalar,
                             dsp::simd::Isa::kScalar};
    const auto reader = [&](int slot) {
      return [&, slot] {
        seen[slot] = &dsp::simd::active_kernels();
        isa[slot] = dsp::simd::active_isa();
        // Second call must be a pure read of the settled state.
        MDN_CHECK(&dsp::simd::active_kernels() == seen[slot]);
      };
    };
    check::thread t0(reader(0));
    check::thread t1(reader(1));
    check::thread t2(reader(2));
    t0.join();
    t1.join();
    t2.join();
    // All callers converged on one table, and it is the table the final
    // ISA maps to (init is idempotent: last store wins but every store
    // carries the same selection).
    MDN_CHECK(seen[0] == seen[1] && seen[1] == seen[2]);
    MDN_CHECK(seen[0] == &dsp::simd::kernels_for(dsp::simd::active_isa()));
    MDN_CHECK(isa[0] == isa[1] && isa[1] == isa[2]);
  });
  model::expect_exhaustive(result);
}

}  // namespace
}  // namespace mdn
