#include "storage/page_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace sfg::storage {
namespace {

constexpr std::size_t kPage = 256;

/// Fill a device with deterministic per-page content.
void fill_device(block_device& dev, std::size_t num_pages) {
  for (std::size_t p = 0; p < num_pages; ++p) {
    std::vector<std::byte> page(kPage);
    util::xoshiro256 rng(p + 1);
    for (auto& b : page) b = static_cast<std::byte>(rng() & 0xff);
    dev.write(p * kPage, page);
  }
}

bool page_matches(std::span<const std::byte> data, std::size_t p) {
  util::xoshiro256 rng(p + 1);
  for (const auto& b : data) {
    if (b != static_cast<std::byte>(rng() & 0xff)) return false;
  }
  return true;
}

TEST(PageCache, MissThenHit) {
  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 4});
  {
    const auto ref = cache.get(3);
    EXPECT_TRUE(page_matches(ref.data(), 3));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  {
    const auto ref = cache.get(3);
    EXPECT_TRUE(page_matches(ref.data(), 3));
  }
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PageCache, EvictionKeepsContentsCorrect) {
  memory_device dev;
  constexpr std::size_t kPages = 64;
  fill_device(dev, kPages);
  page_cache cache(dev, {kPage, 4});  // tiny cache: constant eviction
  util::xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto p = rng.uniform_below(kPages);
    const auto ref = cache.get(p);
    ASSERT_TRUE(page_matches(ref.data(), p)) << "page " << p;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(PageCache, WorkingSetWithinCacheNeverEvicts) {
  memory_device dev;
  fill_device(dev, 4);
  page_cache cache(dev, {kPage, 8});
  for (int round = 0; round < 100; ++round) {
    for (std::size_t p = 0; p < 4; ++p) {
      const auto ref = cache.get(p);
      ASSERT_TRUE(page_matches(ref.data(), p));
    }
  }
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().hits, 396u);
}

TEST(PageCache, DirtyPageWritesBackOnEviction) {
  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  {
    auto ref = cache.get(0);
    auto bytes = ref.mutable_data();
    bytes[0] = std::byte{0xAB};
    bytes[1] = std::byte{0xCD};
  }
  // Touch enough other pages to force page 0 out.
  for (std::size_t p = 1; p < 8; ++p) (void)cache.get(p);
  EXPECT_GT(cache.stats().writebacks, 0u);
  std::vector<std::byte> raw(2);
  dev.read(0, raw);
  EXPECT_EQ(raw[0], std::byte{0xAB});
  EXPECT_EQ(raw[1], std::byte{0xCD});
  // And reading it back through the cache sees the new bytes.
  const auto ref = cache.get(0);
  EXPECT_EQ(ref.data()[0], std::byte{0xAB});
}

TEST(PageCache, FlushDirtyPersistsWithoutEviction) {
  memory_device dev;
  page_cache cache(dev, {kPage, 4});
  {
    auto ref = cache.get(5);
    ref.mutable_data()[10] = std::byte{0x77};
  }
  cache.flush_dirty();
  std::vector<std::byte> raw(kPage);
  dev.read(5 * kPage, raw);
  EXPECT_EQ(raw[10], std::byte{0x77});
  EXPECT_EQ(cache.stats().writebacks, 1u);
  // Still cached: next access is a hit.
  (void)cache.get(5);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PageCache, PinnedPagesSurviveEvictionPressure) {
  memory_device dev;
  fill_device(dev, 32);
  page_cache cache(dev, {kPage, 4});
  const auto pinned = cache.get(0);
  // Hammer the rest of the cache.
  util::xoshiro256 rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto p = 1 + rng.uniform_below(31);
    const auto ref = cache.get(p);
    ASSERT_TRUE(page_matches(ref.data(), p));
  }
  // The pinned view must still be intact.
  EXPECT_TRUE(page_matches(pinned.data(), 0));
}

TEST(PageCache, MoveTransfersPin) {
  memory_device dev;
  fill_device(dev, 2);
  page_cache cache(dev, {kPage, 2});
  auto a = cache.get(1);
  page_cache::page_ref b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(page_matches(b.data(), 1));
}

TEST(PageCache, ConcurrentReadersSeeConsistentData) {
  memory_device dev;
  constexpr std::size_t kPages = 128;
  fill_device(dev, kPages);
  page_cache cache(dev, {kPage, 16});
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      auto rng = util::make_stream(55, static_cast<std::uint64_t>(t));
      for (int i = 0; i < 1500; ++i) {
        const auto p = rng.uniform_below(kPages);
        const auto ref = cache.get(p);
        if (!page_matches(ref.data(), p)) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 8u * 1500u);
}

TEST(PageCache, ConcurrentMissesOnSamePageLoadOnce) {
  memory_device dev;
  fill_device(dev, 1);
  // Slow device so the threads really do race into the miss path.
  sim_nvram_device slow(dev, {std::chrono::microseconds(3000),
                              std::chrono::microseconds(3000), 32});
  page_cache cache(slow, {kPage, 8});
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &failures] {
      const auto ref = cache.get(0);
      if (!page_matches(ref.data(), 0)) failures.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(PageCache, AllFramesPinnedBlocksUntilUnpin) {
  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  auto a = cache.get(0);
  {
    auto b = cache.get(1);
    // Third get must wait for an unpin from another thread.
    std::atomic<bool> got{false};
    std::thread waiter([&cache, &got] {
      const auto c = cache.get(2);
      got.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(got.load());
    b = page_cache::page_ref{};  // release pin
    waiter.join();
    EXPECT_TRUE(got.load());
  }
}

// The miss fill reuses a frame without clearing it, relying on the device
// to write every byte.  A frame that held a full page of non-zero bytes,
// refilled with the device's last, partial page, must read zeros past the
// device end — not the previous page's tail.
TEST(PageCache, ReusedFrameReadsZerosPastDeviceEnd) {
  memory_device dev;
  constexpr std::size_t kTail = kPage / 4;  // bytes of the last page
  std::vector<std::byte> content(2 * kPage + kTail);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::byte>(0x80 | (i & 0x7f));  // never zero
  }
  dev.write(0, content);
  page_cache cache(dev, {kPage, 1});  // one frame: every miss reuses it
  {
    const auto ref = cache.get(0);
    for (const auto b : ref.data()) ASSERT_NE(b, std::byte{0});
  }
  const auto ref = cache.get(2);
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto data = ref.data();
  ASSERT_EQ(data.size(), kPage);
  for (std::size_t i = 0; i < kTail; ++i) {
    ASSERT_EQ(data[i], content[2 * kPage + i]) << i;
  }
  for (std::size_t i = kTail; i < kPage; ++i) {
    ASSERT_EQ(data[i], std::byte{0}) << i;
  }
}

TEST(PageCache, RejectsZeroConfig) {
  memory_device dev;
  EXPECT_THROW(page_cache(dev, {0, 4}), std::invalid_argument);
  EXPECT_THROW(page_cache(dev, {kPage, 0}), std::invalid_argument);
}

TEST(PageCache, RegistryDeltasMatchLocalStatsAndSurviveReset) {
  // Pins the intended split between the two stat surfaces: cache_stats is
  // per-instance and resettable; the cache.* registry counters are
  // process-wide monotonic (shared by every cache, diffed into rates by
  // the time-series sampler).  Over a window of operations the registry
  // deltas must equal the cache_stats deltas, and reset_stats() must
  // clear only the local side.
  const bool saved = obs::metrics_on();
  obs::set_metrics_enabled(true);
  auto& reg = obs::metrics_registry::instance();
  auto& r_hits = reg.get_counter("cache.hits");
  auto& r_misses = reg.get_counter("cache.misses");
  auto& r_wb = reg.get_counter("cache.writebacks");

  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  const std::uint64_t hits0 = r_hits.value();
  const std::uint64_t misses0 = r_misses.value();
  const std::uint64_t wb0 = r_wb.value();

  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < 4; ++p) {
      auto ref = cache.get(p);           // misses + evictions under pressure
      ref.mutable_data()[0] = std::byte{0xAB};  // dirty -> writebacks
    }
    cache.get(3);  // immediate re-get: a hit
  }
  cache.flush_dirty();

  const auto local = cache.stats();
  EXPECT_EQ(r_hits.value() - hits0, local.hits);
  EXPECT_EQ(r_misses.value() - misses0, local.misses);
  EXPECT_EQ(r_wb.value() - wb0, local.writebacks);
  EXPECT_GT(local.misses, 0u);
  EXPECT_GT(local.writebacks, 0u);

  // reset_stats() zeroes only the instance snapshot; the process-wide
  // registry keeps counting from where it was.
  const std::uint64_t misses_before_reset = r_misses.value();
  cache.reset_stats();
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(r_misses.value(), misses_before_reset)
      << "reset_stats() must not touch the shared registry counters";
  // And the next window diffs cleanly on both surfaces.
  const std::uint64_t hits1 = r_hits.value();
  cache.get(3);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(r_hits.value() - hits1, 1u);

  obs::set_metrics_enabled(saved);
}

}  // namespace
}  // namespace sfg::storage
