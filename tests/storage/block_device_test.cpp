#include "storage/block_device.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sfg::storage {
namespace {

std::vector<std::byte> pattern_bytes(std::size_t n, std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

template <typename Dev>
void roundtrip_check(Dev& dev) {
  const auto data = pattern_bytes(10000, 42);
  dev.write(128, data);
  std::vector<std::byte> back(10000);
  dev.read(128, back);
  EXPECT_EQ(back, data);
}

TEST(MemoryDevice, RoundTrip) {
  memory_device dev;
  roundtrip_check(dev);
  EXPECT_EQ(dev.size_bytes(), 10128u);
}

TEST(MemoryDevice, ReadPastEndIsZero) {
  memory_device dev;
  const auto data = pattern_bytes(16, 1);
  dev.write(0, data);
  std::vector<std::byte> out(32);
  dev.read(8, out);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], data[8 + i]);
  for (std::size_t i = 8; i < 32; ++i) EXPECT_EQ(out[i], std::byte{0});
}

TEST(MemoryDevice, OverlappingWrites) {
  memory_device dev;
  const auto a = pattern_bytes(100, 1);
  const auto b = pattern_bytes(100, 2);
  dev.write(0, a);
  dev.write(50, b);
  std::vector<std::byte> out(150);
  dev.read(0, out);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(out[i], a[i]);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[50 + i], b[i]);
}

TEST(FileDevice, RoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sfg_filedev_test.bin")
          .string();
  {
    file_device dev(path, /*truncate=*/true);
    roundtrip_check(dev);
  }
  // Reopen without truncation: data persists.
  {
    file_device dev(path, /*truncate=*/false);
    const auto expected = pattern_bytes(10000, 42);
    std::vector<std::byte> back(10000);
    dev.read(128, back);
    EXPECT_EQ(back, expected);
  }
  std::filesystem::remove(path);
}

TEST(FileDevice, ReadPastEofZeroFills) {
  const auto path =
      (std::filesystem::temp_directory_path() / "sfg_filedev_eof.bin")
          .string();
  file_device dev(path, true);
  dev.write(0, pattern_bytes(10, 3));
  std::vector<std::byte> out(64, std::byte{0xff});
  dev.read(0, out);
  for (std::size_t i = 10; i < 64; ++i) EXPECT_EQ(out[i], std::byte{0});
  std::filesystem::remove(path);
}

TEST(FileDevice, ThrowsOnBadPath) {
  EXPECT_THROW(file_device("/nonexistent_dir_xyz/f.bin", true),
               std::runtime_error);
}

TEST(SimNvram, RoundTripAndStats) {
  memory_device inner;
  sim_nvram_device dev(inner, {std::chrono::microseconds(1),
                               std::chrono::microseconds(1), 4});
  roundtrip_check(dev);
  const auto s = dev.stats();
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.bytes_read, 10000u);
  EXPECT_EQ(s.bytes_written, 10000u);
}

TEST(SimNvram, SerialLatencyIsEnforced) {
  memory_device inner;
  inner.write(0, pattern_bytes(4096, 5));
  sim_nvram_device dev(inner, {std::chrono::microseconds(2000),
                               std::chrono::microseconds(2000), 32});
  std::vector<std::byte> buf(64);
  util::timer t;
  constexpr int kOps = 10;
  for (int i = 0; i < kOps; ++i) dev.read(0, buf);
  // 10 serial reads at 2ms each must take >= ~20ms.
  EXPECT_GE(t.elapsed_ms(), 18.0);
}

TEST(SimNvram, ConcurrencyOverlapsLatency) {
  memory_device inner;
  inner.write(0, pattern_bytes(4096, 6));
  sim_nvram_device dev(inner, {std::chrono::microseconds(5000),
                               std::chrono::microseconds(5000), 16});
  // 16 concurrent readers with queue depth 16: wall time ~1 latency, far
  // below the 80ms serial time.  This is the paper's §II-B observation
  // that NVRAM needs high concurrent I/O for performance.
  util::timer t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&dev] {
      std::vector<std::byte> buf(64);
      dev.read(0, buf);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LT(t.elapsed_ms(), 60.0);
}

TEST(SimNvram, QueueDepthBoundsConcurrency) {
  memory_device inner;
  sim_nvram_device dev(inner, {std::chrono::microseconds(5000),
                               std::chrono::microseconds(5000), 1});
  // Queue depth 1 serializes even concurrent requests: 6 reads at 5ms
  // each must take >= ~30ms of wall time.
  util::timer t;
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&dev] {
      std::vector<std::byte> buf(16);
      dev.read(0, buf);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(t.elapsed_ms(), 25.0);
}

TEST(SimNvram, RejectsZeroQueueDepth) {
  memory_device inner;
  EXPECT_THROW(sim_nvram_device(inner, {std::chrono::microseconds(1),
                                        std::chrono::microseconds(1), 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sfg::storage
