/// \file frontier_alloc_test.cpp
/// Zero-allocation proof for the frontier hot path (DESIGN.md §13): after
/// resize(), the per-level cycle — insert / test / for_each / flip /
/// try_sparsify — must never touch the heap, including the degradation to
/// dense-only and the recovery back to sparse.  The level-synchronous BFS
/// flips frontiers every level; an allocation here would put malloc on
/// the traversal's critical path once per level per rank.
///
/// Counts allocations with the binary's counting operator new
/// (support/counting_new.hpp).
#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "support/counting_new.hpp"

namespace sfg::core {
namespace {

TEST(FrontierAlloc, SteadyStateLevelCycleAllocatesNothing) {
  constexpr std::size_t kBits = 1 << 14;
  frontier cur(kBits);
  frontier next(kBits);

  std::uint64_t sink = 0;
  auto level_cycle = [&](std::uint64_t round) {
    // Simulate one BFS level: populate next (sparse regime), read cur,
    // then flip.
    for (std::size_t i = 0; i < 64; ++i) {
      next.insert((i * 131 + static_cast<std::size_t>(round) * 17) % kBits);
    }
    next.try_sparsify();
    next.for_each([&](std::size_t i) { sink += i; });
    for (std::size_t i = 0; i < 256; ++i) sink += next.test(i) ? 1 : 0;
    flip(cur, next);
  };
  auto dense_cycle = [&](std::uint64_t round) {
    // Overflow the sparse budget so the accelerator drops, iterate dense,
    // then flip — the degradation path must be allocation-free too.
    for (std::size_t i = 0; i < kBits; i += 4) {
      next.insert((i + static_cast<std::size_t>(round)) % kBits);
    }
    next.for_each([&](std::size_t i) { sink += i; });
    flip(cur, next);
  };

  // resize() above acquired all capacity; no warm-up rounds should even
  // be necessary, but run a few so the measurement matches the BFS's
  // steady state (levels >= 1).
  for (std::uint64_t r = 0; r < 4; ++r) {
    level_cycle(r);
    dense_cycle(r);
  }

  const std::uint64_t before = test::allocations();
  for (std::uint64_t r = 0; r < 256; ++r) {
    level_cycle(r);
    dense_cycle(r);
  }
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "frontier level cycle allocated on the heap";
  EXPECT_GT(sink, 0u);
}

TEST(FrontierAlloc, ResizeIsTheOnlyAllocator) {
  const std::uint64_t before = test::allocations();
  frontier f(1 << 12);
  const std::uint64_t after_resize = test::allocations();
  EXPECT_GT(after_resize, before);  // resize() is allowed to allocate

  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < (1u << 12); ++i) f.insert(i);  // goes dense
  f.clear();
  for (std::size_t i = 0; i < 32; ++i) f.insert(i * 7);
  f.try_sparsify();
  f.for_each([&](std::size_t i) { sink += i; });
  const std::uint64_t delta = test::allocations() - after_resize;
  EXPECT_EQ(delta, 0u) << "a frontier member other than resize() allocated";
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace sfg::core
