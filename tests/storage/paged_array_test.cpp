#include "storage/paged_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "storage/block_device.hpp"
#include "util/rng.hpp"

namespace sfg::storage {
namespace {

constexpr std::size_t kPage = 128;  // 16 uint64 per page
constexpr std::size_t kPerPage = kPage / sizeof(std::uint64_t);

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
  for (auto cur = arr.scan(0, kN); !cur.done(); cur.advance()) {
    sum += cur.value();
  }
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
  for (auto cur = arr.scan(10, 30); !cur.done(); cur.advance()) {
    EXPECT_EQ(cur.value(), values[cur.index()]);
    seen.push_back(cur.value());
  }
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

  const auto walk = [&arr](std::size_t begin, std::size_t end) {
    for (auto cur = arr.scan(begin, end); !cur.done(); cur.advance()) {
      (void)cur.value();
    }
  };
  std::uint64_t before = cache.stats().bytes_requested;
  walk(2, 5);  // inside page 0
  EXPECT_EQ(cache.stats().bytes_requested - before, 3 * sizeof(std::uint64_t));

  before = cache.stats().bytes_requested;
  walk(10, 30);  // pages 0 and 1
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
  {
    auto cur = arr.scan(5, 45);
    for (; !cur.done(); cur.advance()) {
      EXPECT_EQ(cur.value(), values[cur.index()]);
      seen.push_back(cur.index());
    }
    EXPECT_EQ(cur.index(), 45u);
  }
  ASSERT_EQ(seen.size(), 40u);
  for (std::size_t k = 0; k < seen.size(); ++k) EXPECT_EQ(seen[k], 5 + k);
  // Pages 0..2 were each pinned once.
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 3u);
  EXPECT_TRUE(arr.scan(7, 7).done());

  // A walk that stops early has still declared its range in the page it
  // pinned, and pinned only that page.
  const std::uint64_t requested_before = cache.stats().bytes_requested;
  const std::uint64_t gets_before = cache.stats().hits + cache.stats().misses;
  std::size_t visited = 0;
  {
    auto cur = arr.scan(33, 40);
    for (; !cur.done(); cur.advance()) {
      (void)cur.value();
      if (++visited == 3) break;
    }
    EXPECT_FALSE(cur.done());
  }
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
  for (auto cur = arr.scan(); !cur.done(); cur.advance()) ++calls;
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
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

// A cursor re-aimed with seek() at a range that starts on its pinned page
// keeps the pin: ranges that tile one page cost one get, and still
// declare exactly their own bytes, charged when the pin is released.
TEST(PagedArray, SeekKeepsThePinAcrossRangesOnOnePage) {
  memory_device dev;
  const auto values = make_values(2 * kPerPage);
  write_array<std::uint64_t>(dev, 0, values);
  page_cache cache(dev, {kPage, 1});
  paged_array<std::uint64_t> arr(cache, 0, values.size());
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 3}, {3, 3}, {3, 7}, {9, kPerPage}};
  {
    auto cur = arr.scan(0, 0);
    for (const auto& [b, e] : ranges) {
      for (cur.seek(b, e); !cur.done(); cur.advance()) {
        ASSERT_EQ(cur.value(), values[cur.index()]);
      }
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 1u);
  EXPECT_EQ(s.bytes_requested, (kPerPage - 2) * sizeof(std::uint64_t));
}

struct walk_range {
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Elements visited before the walk stops early (max: the whole range).
  std::size_t stop_after = std::numeric_limits<std::size_t>::max();
};

/// Ascending, disjoint ranges like the CSR rows of a level scan: empty
/// rows, short rows that end mid-page, rows spanning pages, gaps of
/// skipped rows, and some walks that stop early like a bottom-up probe.
std::vector<walk_range> random_ranges(util::xoshiro256& rng, std::size_t n) {
  std::vector<walk_range> out;
  std::size_t pos = rng.uniform_below(kPerPage);
  while (pos < n) {
    std::size_t len = 0;
    switch (rng.uniform_below(4)) {
      case 0:
        break;
      case 1:
        len = 1 + rng.uniform_below(4);
        break;
      case 2:
        len = 1 + rng.uniform_below(kPerPage);
        break;
      default:
        len = kPerPage + rng.uniform_below(3 * kPerPage);
    }
    walk_range r{pos, std::min(n, pos + len)};
    if (r.end > r.begin && rng.uniform_below(3) == 0) {
      r.stop_after = 1 + rng.uniform_below(r.end - r.begin);
    }
    out.push_back(r);
    pos = r.end;
    if (rng.uniform_below(3) == 0) pos += rng.uniform_below(2 * kPerPage);
  }
  return out;
}

struct walk_run {
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;
  page_cache::cache_stats stats;
};

/// Walk `ranges` on a fresh cache of `frames` frames, either through one
/// cursor re-aimed with seek() or with a fresh cursor per range.
walk_run walk_ranges(block_device& dev, std::size_t n, std::size_t frames,
                     const std::vector<walk_range>& ranges, bool one_cursor) {
  page_cache cache(dev, {kPage, frames});
  paged_array<std::uint64_t> arr(cache, 0, n);
  walk_run run;
  const auto walk = [&run](paged_array<std::uint64_t>::cursor& cur,
                           const walk_range& r) {
    std::size_t visited = 0;
    for (; !cur.done(); cur.advance()) {
      run.seen.emplace_back(cur.index(), cur.value());
      if (++visited == r.stop_after) break;
    }
  };
  {
    auto walker = arr.scan(0, 0);
    for (const walk_range& r : ranges) {
      if (one_cursor) {
        walker.seek(r.begin, r.end);
        walk(walker, r);
      } else {
        auto cur = arr.scan(r.begin, r.end);
        walk(cur, r);
      }
    }
  }  // releases the walker's last pin, charging its declared demand
  run.stats = cache.stats();
  return run;
}

// One cursor walking ascending ranges reads what a cursor per range reads
// and costs the cache the same misses, evictions, declared demand and
// device bytes: it only skips the re-pins of the page the previous range
// left pinned, which were all hits.
TEST(PagedArray, OneCursorOverRangesMatchesCursorPerRange) {
  constexpr std::size_t kN = 40 * kPerPage;
  memory_device dev;
  const auto values = make_values(kN);
  write_array<std::uint64_t>(dev, 0, values);
  std::uint64_t walker_hits = 0;
  std::uint64_t per_range_hits = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto rng = util::make_stream(0x5EEC, seed);
    const auto ranges = random_ranges(rng, kN);
    for (const std::size_t frames : {1, 2, 3, 8}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " frames " +
                   std::to_string(frames));
      const walk_run one = walk_ranges(dev, kN, frames, ranges, true);
      const walk_run per = walk_ranges(dev, kN, frames, ranges, false);
      ASSERT_EQ(one.seen, per.seen);
      for (const auto& [i, v] : one.seen) ASSERT_EQ(v, values[i]) << i;
      EXPECT_EQ(one.stats.misses, per.stats.misses);
      EXPECT_EQ(one.stats.evictions, per.stats.evictions);
      EXPECT_EQ(one.stats.bytes_requested, per.stats.bytes_requested);
      EXPECT_EQ(one.stats.dev_bytes_read, per.stats.dev_bytes_read);
      EXPECT_LE(one.stats.hits, per.stats.hits);
      walker_hits += one.stats.hits;
      per_range_hits += per.stats.hits;
    }
  }
  EXPECT_LT(walker_hits, per_range_hits);
}

}  // namespace
}  // namespace sfg::storage
