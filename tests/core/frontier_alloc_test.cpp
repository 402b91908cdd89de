/// \file frontier_alloc_test.cpp
/// Zero-allocation proof for the frontier hot path (DESIGN.md §13): after
/// resize(), the per-level cycle — a batch of inserts, the words read for
/// the broadcast, a clear — must never touch the heap, at any density.
/// The level-synchronous BFS runs this cycle every level; an allocation
/// here would put malloc on the traversal's critical path once per level
/// per rank.
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
  frontier next;
  next.resize(kBits);

  std::uint64_t sink = 0;
  auto level_cycle = [&](std::uint64_t round, std::size_t stride) {
    // Simulate one BFS level: claims fill next, its words are gathered,
    // then it is cleared for the coming level's claims.
    for (std::size_t i = 0; i < kBits; i += stride) {
      next.insert((i + static_cast<std::size_t>(round) * 17) % kBits);
    }
    for (const std::uint64_t w : next.words()) sink += w & 1u;
    sink += next.count();
    next.clear();
  };

  // resize() above acquired all capacity; no warm-up rounds should even
  // be necessary, but run a few so the measurement matches the BFS's
  // steady state (levels >= 1).
  for (std::uint64_t r = 0; r < 4; ++r) {
    level_cycle(r, 131);
    level_cycle(r, 4);
  }

  const std::uint64_t before = test::allocations();
  for (std::uint64_t r = 0; r < 256; ++r) {
    level_cycle(r, 131);
    level_cycle(r, 4);
  }
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "frontier level cycle allocated on the heap";
  EXPECT_GT(sink, 0u);
}

TEST(FrontierAlloc, ResizeIsTheOnlyAllocator) {
  const std::uint64_t before = test::allocations();
  frontier f;
  f.resize(1 << 12);
  const std::uint64_t after_resize = test::allocations();
  EXPECT_GT(after_resize, before);  // resize() is allowed to allocate

  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < (1u << 12); ++i) f.insert(i);
  f.clear();
  for (std::size_t i = 0; i < 32; ++i) f.insert(i * 7);
  for (const std::uint64_t w : f.words()) sink += w;
  const std::uint64_t delta = test::allocations() - after_resize;
  EXPECT_EQ(delta, 0u) << "a frontier member other than resize() allocated";
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace sfg::core
