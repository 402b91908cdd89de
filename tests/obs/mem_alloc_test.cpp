/// Zero-allocation tests for the memory-attribution hot path (DESIGN.md
/// §15): a mem_tracker::set() must never touch the heap — not while the
/// subsystem gate is off (single relaxed load + compare), and not while
/// attribution is on with an armed budget (atomic adds on a preallocated
/// slot block plus the fixed pending-transition ring).  A std::function
/// or vector sneaking into the charge path would show up here.
///
/// Own binary: this TU replaces global operator new/delete with counting
/// versions (same pattern as tests/storage/storage_alloc_test.cpp); two
/// such TUs cannot share a binary.
#include "obs/mem.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/metrics.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sfg::obs {
namespace {

std::uint64_t charge_phase_allocations(mem_tracker& t) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 4096; ++round) {
    t.set(static_cast<std::uint64_t>(round % 7) * 4096);
    mem_charge(mem_subsystem::other, 128);
    mem_release(mem_subsystem::other, 128);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(MemAlloc, DisabledChargePathAllocatesNothing) {
  const bool saved = detail::any_on(detail::kMemBit);
  set_mem_enabled(false);
  ASSERT_FALSE(mem_on());
  mem_tracker t(mem_subsystem::frontier);
  EXPECT_EQ(charge_phase_allocations(t), 0u)
      << "mem_tracker::set allocated with attribution off";
  set_mem_enabled(saved);
}

TEST(MemAlloc, ArmedChargePathAllocatesNothing) {
  const bool saved = detail::any_on(detail::kMemBit);
  const std::uint64_t saved_budget = mem_budget();
  set_mem_enabled(true);
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
  set_mem_enabled(saved);
}

}  // namespace
}  // namespace sfg::obs
