/// Zero-allocation tests for the page cache (DESIGN.md §12): once the
/// working set is resident, get() on a cached page is a table lookup +
/// pin — no heap traffic — and once every frame holds its buffer, a miss
/// that evicts only rewrites slots of the flat page table and refills a
/// frame.  Turning the I/O-attribution layer on (the data gate,
/// metrics_on()) must not change either: the latency histograms are fixed
/// bucket arrays, the reuse-distance estimator is a fixed 256-slot table,
/// and per-frame touch counts live in the preallocated frame array, so
/// attribution adds clock reads and stores, never allocations.
///
/// Counts allocations with the binary's counting operator new
/// (support/counting_new.hpp).
#include "storage/page_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.hpp"
#include "storage/block_device.hpp"
#include "support/counting_new.hpp"

namespace sfg::storage {
namespace {

constexpr std::size_t kPage = 512;
constexpr std::size_t kFrames = 16;

/// Warm every page of the working set into a frame, then hammer hits and
/// return the allocation delta over the steady-state phase.
std::uint64_t hit_phase_allocations(page_cache& cache) {
  std::uint64_t sink = 0;
  for (std::size_t p = 0; p < kFrames; ++p) {
    auto ref = cache.get(p, sizeof(std::uint64_t));
    sink += ref.data().size();
  }
  const std::uint64_t before = test::allocations();
  for (int round = 0; round < 256; ++round) {
    for (std::size_t p = 0; p < kFrames; ++p) {
      auto ref = cache.get(p, sizeof(std::uint64_t));
      sink += ref.data()[0] == std::byte{0} ? 1u : 0u;
    }
  }
  EXPECT_GT(sink, 0u);
  return test::allocations() - before;
}

TEST(StorageAlloc, HitPathAllocatesNothingWithAttributionOff) {
  obs::set_metrics_enabled(false);
  memory_device dev;
  page_cache cache(dev, {kPage, kFrames});
  EXPECT_EQ(hit_phase_allocations(cache), 0u)
      << "page-cache hit path allocated with I/O attribution off";
}

TEST(StorageAlloc, HitPathAllocatesNothingWithAttributionOn) {
  obs::set_metrics_enabled(true);
  memory_device dev;
  page_cache cache(dev, {kPage, kFrames});
  const std::uint64_t delta = hit_phase_allocations(cache);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(delta, 0u)
      << "I/O attribution allocated on the page-cache hit path";
}

/// Give every frame its buffer, then cycle gets over 4x as many pages as
/// frames, 64 rounds: each get misses and evicts.  Returns the allocation
/// delta over the cycling.
std::uint64_t miss_phase_allocations(page_cache& cache) {
  constexpr std::size_t kPages = 4 * kFrames;
  // Warm with pages outside the cycle, so its first get misses too.
  for (std::size_t p = kPages; p < kPages + kFrames; ++p) {
    (void)cache.get(p, sizeof(std::uint64_t));
  }
  const auto s0 = cache.stats();
  std::uint64_t sink = 0;
  const std::uint64_t before = test::allocations();
  for (int round = 0; round < 64; ++round) {
    for (std::size_t p = 0; p < kPages; ++p) {
      auto ref = cache.get(p, sizeof(std::uint64_t));
      sink += ref.data()[0] == std::byte{0} ? 1u : 0u;
    }
  }
  const std::uint64_t delta = test::allocations() - before;
  const auto s1 = cache.stats();
  EXPECT_EQ(sink, 64u * kPages);
  EXPECT_EQ(s1.hits, s0.hits);
  EXPECT_EQ(s1.misses - s0.misses, 64u * kPages);
  EXPECT_EQ(s1.evictions - s0.evictions, 64u * kPages);
  return delta;
}

TEST(StorageAlloc, MissPathAllocatesNothing) {
  for (const bool data_on : {false, true}) {
    SCOPED_TRACE(data_on ? "attribution on" : "attribution off");
    obs::set_metrics_enabled(data_on);
    memory_device dev;
    page_cache cache(dev, {kPage, kFrames});
    const std::uint64_t delta = miss_phase_allocations(cache);
    obs::set_metrics_enabled(false);
    EXPECT_EQ(delta, 0u) << "page-cache miss path allocated";
  }
}

}  // namespace
}  // namespace sfg::storage
