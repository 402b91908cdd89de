#include "storage/page_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
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

/// A device that counts the reads and writes reaching it.
class counting_device final : public block_device {
 public:
  explicit counting_device(block_device& inner) : inner_(&inner) {}

  void read(std::uint64_t offset, std::span<std::byte> out) override {
    ++reads;
    inner_->read(offset, out);
  }
  void write(std::uint64_t offset, std::span<const std::byte> data) override {
    ++writes;
    inner_->write(offset, data);
  }
  [[nodiscard]] std::uint64_t size_bytes() const override {
    return inner_->size_bytes();
  }

  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};

 private:
  block_device* inner_;
};

// The cache is read-only: under capacity evictions, injected eviction
// pressure and delayed fills, with pins held across other gets, every
// device operation it issues is one whole-page miss fill.
TEST(PageCache, NeverWritesTheDevice) {
  memory_device mem;
  constexpr std::size_t kPages = 64;
  fill_device(mem, kPages);
  counting_device dev(mem);
  page_cache::config cfg{kPage, 4};
  cfg.faults.seed = 17;
  cfg.faults.evict_prob = 0.3;
  cfg.faults.io_delay_prob = 0.2;
  cfg.faults.max_io_delay = std::chrono::microseconds(20);
  page_cache cache(dev, cfg);
  util::xoshiro256 rng(11);
  std::vector<page_cache::page_ref> held;
  for (int i = 0; i < 2000; ++i) {
    if (held.size() == 2) held.erase(held.begin());
    const auto p = rng.uniform_below(kPages);
    auto ref = cache.get(p);
    ASSERT_TRUE(page_matches(ref.data(), p)) << "page " << p;
    if (rng.uniform_below(4) == 0) held.push_back(std::move(ref));
  }
  held.clear();
  const auto s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.fault_evictions, 0u);
  EXPECT_GT(s.fault_io_delays, 0u);
  EXPECT_EQ(dev.writes.load(), 0u);
  EXPECT_EQ(dev.reads.load(), s.misses);
  EXPECT_EQ(s.dev_bytes_read, s.misses * kPage);
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

  memory_device dev;
  fill_device(dev, 8);
  page_cache cache(dev, {kPage, 2});
  const std::uint64_t hits0 = r_hits.value();
  const std::uint64_t misses0 = r_misses.value();

  for (int round = 0; round < 2; ++round) {
    for (std::size_t p = 0; p < 4; ++p) {
      cache.get(p);  // misses + evictions under pressure
    }
    cache.get(3);  // immediate re-get: a hit
  }

  const auto local = cache.stats();
  EXPECT_EQ(r_hits.value() - hits0, local.hits);
  EXPECT_EQ(r_misses.value() - misses0, local.misses);
  EXPECT_GT(local.misses, 0u);
  EXPECT_GT(local.hits, 0u);

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

/// The page cache's eviction policy as a plain model: CLOCK over frames
/// in index order, skipping pinned frames, clearing a set reference bit
/// instead of evicting.
class reference_clock {
 public:
  explicit reference_clock(std::size_t frames) : frames_(frames) {}

  /// Pin `page`; false if every frame is pinned (the cache would block).
  bool get(std::uint64_t page) {
    for (auto& f : frames_) {
      if (f.page == page) {
        ++f.pins;
        f.referenced = true;
        ++hits;
        return true;
      }
    }
    for (std::size_t scanned = 0; scanned < 2 * frames_.size(); ++scanned) {
      slot& f = frames_[hand_];
      hand_ = (hand_ + 1) % frames_.size();
      if (f.pins > 0) continue;
      if (f.referenced) {
        f.referenced = false;
        continue;
      }
      if (f.page != kEmpty) ++evictions;
      f = {page, 1, true};
      ++misses;
      return true;
    }
    return false;
  }

  void release(std::uint64_t page) {
    for (auto& f : frames_) {
      if (f.page == page) --f.pins;
    }
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct slot {
    std::uint64_t page = kEmpty;
    int pins = 0;
    bool referenced = false;
  };
  std::vector<slot> frames_;
  std::size_t hand_ = 0;
};

/// 64 page ids that crowd a few neighbouring home slots of the page table
/// (which holds at most 32 slots for 8 frames), wrapping around its end,
/// so inserts probe past occupied slots and erases shift keys back.  The
/// hash mirrors the table's; were it to change, this stays a correctness
/// test with fewer collisions.
std::vector<std::uint64_t> colliding_pages() {
  std::vector<std::uint64_t> out;
  for (std::uint64_t p = 0; out.size() < 64; ++p) {
    const std::uint64_t home32 = (p * 0x9E3779B97F4A7C15ull) >> 59;
    if (home32 == 31 || home32 <= 1) out.push_back(p);
  }
  return out;
}

// Seeded gets, held pins and releases on caches of 1-8 frames: every
// pinned page reads its own bytes, and hits, misses and evictions match
// the reference CLOCK model step for step.
TEST(PageCache, MatchesReferenceClockOnCollidingPages) {
  const auto pages = colliding_pages();
  memory_device dev;
  fill_device(dev, pages.back() + 1);
  for (std::size_t frames = 1; frames <= 8; ++frames) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("frames " + std::to_string(frames) + " seed " +
                   std::to_string(seed));
      page_cache cache(dev, {kPage, frames});
      reference_clock model(frames);
      std::vector<page_cache::page_ref> held;
      auto rng = util::make_stream(0xC10C, seed * 16 + frames);
      for (int op = 0; op < 2000; ++op) {
        // Keep one frame unpinned, so the next get can always proceed.
        if (held.size() >= frames) {
          const std::size_t k = rng.uniform_below(held.size());
          model.release(held[k].page_id());
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        }
        // A small hot set plus the whole range: hits and misses both.
        const std::uint64_t page =
            rng.uniform_below(2) == 0 ? pages[rng.uniform_below(4)]
                                      : pages[rng.uniform_below(pages.size())];
        ASSERT_TRUE(model.get(page));
        auto ref = cache.get(page);
        ASSERT_EQ(ref.page_id(), page);
        ASSERT_TRUE(page_matches(ref.data(), page)) << "page " << page;
        if (rng.uniform_below(3) == 0) {
          held.push_back(std::move(ref));
        } else {
          model.release(page);
        }
      }
      for (const auto& ref : held) {
        EXPECT_TRUE(page_matches(ref.data(), ref.page_id()));
      }
      const auto s = cache.stats();
      EXPECT_EQ(s.hits, model.hits);
      EXPECT_EQ(s.misses, model.misses);
      EXPECT_EQ(s.evictions, model.evictions);
      EXPECT_GT(s.evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace sfg::storage
