/// Zero-allocation tests for the memory-attribution hot path (DESIGN.md
/// §15): a mem_tracker::set() must never touch the heap — not while the
/// subsystem gate is off (single relaxed load + compare), and not while
/// attribution is on with an armed budget (atomic adds on a preallocated
/// slot block plus the fixed pending-transition ring).  A std::function
/// or vector sneaking into the charge path would show up here.
///
/// Counts allocations with the binary's counting operator new
/// (support/counting_new.hpp).
#include "obs/mem.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hpp"
#include "support/counting_new.hpp"

namespace sfg::obs {
namespace {

std::uint64_t charge_phase_allocations(mem_tracker& t) {
  const std::uint64_t before = test::allocations();
  for (int round = 0; round < 4096; ++round) {
    t.set(static_cast<std::uint64_t>(round % 7) * 4096);
  }
  return test::allocations() - before;
}

TEST(MemAlloc, DisabledChargePathAllocatesNothing) {
  const bool saved = detail::any_on(detail::kMetricsBit);
  set_metrics_enabled(false);
  ASSERT_FALSE(mem_on());
  mem_tracker t(mem_subsystem::frontier);
  EXPECT_EQ(charge_phase_allocations(t), 0u)
      << "mem_tracker::set allocated with attribution off";
  set_metrics_enabled(saved);
}

TEST(MemAlloc, ArmedChargePathAllocatesNothing) {
  const bool saved = detail::any_on(detail::kMetricsBit);
  const std::uint64_t saved_budget = mem_budget();
  set_metrics_enabled(true);
  // Tight budget so the loop crosses pressure thresholds constantly:
  // note_transition (counter bumps + pending ring) must stay on the
  // no-allocation path even while the ladder is flapping.
  set_mem_budget(8192);
  mem_clear();

  mem_tracker t(mem_subsystem::frontier);
  t.set(1);  // first charge resolves the rank slot (may allocate the block)
  mem_pressure_poll();  // drain anything pending before measuring

  EXPECT_EQ(charge_phase_allocations(t), 0u)
      << "mem_tracker::set allocated with attribution on and budget armed";

  t.set(0);
  mem_pressure_poll();
  mem_clear();
  set_mem_budget(saved_budget);
  set_metrics_enabled(saved);
}

}  // namespace
}  // namespace sfg::obs
