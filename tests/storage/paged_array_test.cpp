#include "storage/paged_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "storage/block_device.hpp"
#include "util/rng.hpp"

namespace sfg::storage {
namespace {

constexpr std::size_t kPage = 128;  // 16 uint64 per page

std::vector<std::uint64_t> make_values(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = util::splitmix64(i);
  return v;
}

TEST(PagedArray, RandomAccessMatchesSource) {
  memory_device dev;
  const auto values = make_values(1000);
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 8});
  paged_array<std::uint64_t> arr(cache, 0, values.size());
  EXPECT_EQ(arr.size(), 1000u);
  util::xoshiro256 rng(1);
  for (int i = 0; i < 3000; ++i) {
    const auto idx = rng.uniform_below(values.size());
    ASSERT_EQ(arr[idx], values[idx]) << idx;
  }
}

TEST(PagedArray, NonZeroBaseOffset) {
  memory_device dev;
  const auto values = make_values(100);
  const std::uint64_t base = 4 * kPage;
  write_array<std::uint64_t>(dev, base, values);
  page_cache cache(dev, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, base, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(arr[i], values[i]);
  }
}

TEST(PagedArray, SequentialScanFaultsEachPageOnce) {
  memory_device dev;
  constexpr std::size_t kN = 16 * 10;  // exactly 10 pages
  const auto values = make_values(kN);
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, 0, kN);
  std::uint64_t sum = 0;
  arr.for_each(0, kN, [&](std::size_t, std::uint64_t v) { sum += v; });
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  EXPECT_EQ(sum, expected);
  // One miss per page; the cursor holds the page pinned across its 16
  // elements, so there are no extra cache probes at all.
  EXPECT_EQ(cache.stats().misses, 10u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PagedArray, PartialRangeForEach) {
  memory_device dev;
  const auto values = make_values(64);
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, 0, 64);
  std::vector<std::uint64_t> seen;
  arr.for_each(10, 30, [&](std::size_t i, std::uint64_t v) {
    EXPECT_EQ(v, values[i]);
    seen.push_back(v);
  });
  EXPECT_EQ(seen.size(), 20u);
}

TEST(PagedArray, CursorCrossesPageBoundaries) {
  memory_device dev;
  const auto values = make_values(40);  // 2.5 pages
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, 0, 40);
  auto cur = arr.scan(14);  // starts near a page boundary
  std::size_t i = 14;
  while (!cur.done()) {
    ASSERT_EQ(cur.value(), values[i]);
    cur.advance();
    ++i;
  }
  EXPECT_EQ(i, 40u);
}

// A range walk declares only the bytes of its own range as demand, even
// when the range ends mid-page; read amplification is dev_bytes_read over
// this, so charging the rest of the page would understate it.
TEST(PagedArray, RangeWalkChargesOnlyItsSpan) {
  memory_device dev;
  const auto values = make_values(64);
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, 0, 64);

  std::uint64_t before = cache.stats().bytes_requested;
  arr.for_each(2, 5, [](std::size_t, std::uint64_t) {});  // inside page 0
  EXPECT_EQ(cache.stats().bytes_requested - before, 3 * sizeof(std::uint64_t));

  before = cache.stats().bytes_requested;
  arr.for_each(10, 30, [](std::size_t, std::uint64_t) {});  // pages 0 and 1
  EXPECT_EQ(cache.stats().bytes_requested - before,
            20 * sizeof(std::uint64_t));
}

TEST(PagedArray, ForEachWhileVisitsRangeInOrder) {
  memory_device dev;
  const auto values = make_values(50);  // 3+ pages
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, 0, values.size());
  std::vector<std::size_t> seen;
  EXPECT_TRUE(arr.for_each_while(5, 45, [&](std::size_t i, std::uint64_t v) {
    EXPECT_EQ(v, values[i]);
    seen.push_back(i);
    return true;
  }));
  ASSERT_EQ(seen.size(), 40u);
  for (std::size_t k = 0; k < seen.size(); ++k) EXPECT_EQ(seen[k], 5 + k);
  // Pages 0..2 were each pinned once.
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 3u);
  EXPECT_TRUE(arr.for_each_while(7, 7, [](std::size_t, std::uint64_t) {
    return false;
  }));

  // A walk that stops early has still declared its range in the page it
  // pinned, and pinned only that page.
  const std::uint64_t requested_before = cache.stats().bytes_requested;
  const std::uint64_t gets_before = cache.stats().hits + cache.stats().misses;
  std::size_t visited = 0;
  EXPECT_FALSE(arr.for_each_while(33, 40, [&](std::size_t, std::uint64_t) {
    return ++visited < 3;
  }));
  EXPECT_EQ(visited, 3u);
  EXPECT_EQ(cache.stats().bytes_requested - requested_before,
            7 * sizeof(std::uint64_t));
  EXPECT_EQ(cache.stats().hits + cache.stats().misses - gets_before, 1u);
}

TEST(PagedArray, EmptyArray) {
  memory_device dev;
  page_cache cache(dev, {kPage, 2});
  paged_array<std::uint32_t> arr(cache, 0, 0);
  EXPECT_TRUE(arr.empty());
  int calls = 0;
  arr.for_each(0, 0, [&](std::size_t, std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(PagedArray, WorksThroughSimNvram) {
  memory_device inner;
  const auto values = make_values(200);
  write_array<std::uint64_t>(inner, 0, values);
  sim_nvram_device nvram(inner, {std::chrono::microseconds(10),
                                 std::chrono::microseconds(10), 8});
  page_cache cache(nvram, {kPage, 4});
  paged_array<std::uint64_t> arr(cache, 0, values.size());
  for (std::size_t i = 0; i < values.size(); i += 7) {
    ASSERT_EQ(arr[i], values[i]);
  }
  EXPECT_GT(nvram.stats().reads, 0u);
}

}  // namespace
}  // namespace sfg::storage
