/// \file block_device_contract_test.cpp
/// The read contract every block_device honors (block_device::read): the
/// device writes every byte of the output span — its own bytes up to
/// size_bytes(), zeros past it — whatever the span held before.  The page
/// cache's miss fill reuses frames without clearing them, so a device
/// that skipped a byte would leak the previous page into this one.  Each
/// read below lands in a buffer pre-filled with 0xAA, so a skipped byte
/// shows up as a stale 0xAA.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "storage/block_device.hpp"
#include "storage/mmap_device.hpp"

namespace sfg::storage {
namespace {

constexpr std::size_t kDeviceBytes = 1000;
constexpr std::byte kStale{0xAA};

std::vector<std::byte> device_content() {
  std::vector<std::byte> out(kDeviceBytes);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>((i * 7 + 1) & 0x7f);  // never 0xAA
  }
  return out;
}

/// A per-process file path, so parallel test processes never share one.
std::string tmp_path(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + std::to_string(::getpid()) + ".bin"))
      .string();
}

// One holder per device type: builds the device holding device_content().

struct memory_holder {
  static constexpr const char* kName = "memory";
  memory_holder() { dev.write(0, device_content()); }
  memory_device dev;
};

struct file_holder {
  static constexpr const char* kName = "file";
  file_holder() { dev.write(0, device_content()); }
  ~file_holder() { std::filesystem::remove(path); }
  std::string path = tmp_path("sfg_contract_file_");
  file_device dev{path, /*truncate=*/true};
};

struct mmap_holder {
  static constexpr const char* kName = "mmap";
  mmap_holder() { dev.write(0, device_content()); }
  ~mmap_holder() { std::filesystem::remove(path); }
  std::string path = tmp_path("sfg_contract_mmap_");
  mmap_device dev{path, kDeviceBytes};
};

struct sim_nvram_holder {
  static constexpr const char* kName = "sim_nvram";
  sim_nvram_holder() { dev.write(0, device_content()); }
  memory_device inner;
  sim_nvram_device dev{inner, {std::chrono::microseconds(0),
                               std::chrono::microseconds(0), 4}};
};

template <typename Holder>
class BlockDeviceContract : public ::testing::Test {
 protected:
  /// Read `len` bytes at `offset` into a buffer of stale bytes.
  std::vector<std::byte> read(std::uint64_t offset, std::size_t len) {
    std::vector<std::byte> out(len, kStale);
    holder_.dev.read(offset, out);
    return out;
  }

  Holder holder_;
  const std::vector<std::byte> content_ = device_content();
};

struct holder_names {
  template <typename Holder>
  static std::string GetName(int /*index*/) {
    return Holder::kName;
  }
};

using device_holders =
    ::testing::Types<memory_holder, file_holder, mmap_holder, sim_nvram_holder>;
TYPED_TEST_SUITE(BlockDeviceContract, device_holders, holder_names);

TYPED_TEST(BlockDeviceContract, SizeIsContentSize) {
  EXPECT_EQ(this->holder_.dev.size_bytes(), kDeviceBytes);
}

TYPED_TEST(BlockDeviceContract, SpanInsideCopiesEveryByte) {
  const auto out = this->read(100, 300);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], this->content_[100 + i]) << i;
  }
}

TYPED_TEST(BlockDeviceContract, SpanAcrossEndCopiesPrefixAndZeroesTail) {
  constexpr std::size_t kInside = 40;
  const auto out = this->read(kDeviceBytes - kInside, 256);
  for (std::size_t i = 0; i < kInside; ++i) {
    ASSERT_EQ(out[i], this->content_[kDeviceBytes - kInside + i]) << i;
  }
  for (std::size_t i = kInside; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << i;
  }
}

TYPED_TEST(BlockDeviceContract, SpanAtEndIsAllZeros) {
  const auto out = this->read(kDeviceBytes, 128);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << i;
  }
}

TYPED_TEST(BlockDeviceContract, SpanPastEndIsAllZeros) {
  const auto out = this->read(kDeviceBytes + 4096, 128);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], std::byte{0}) << i;
  }
}

TYPED_TEST(BlockDeviceContract, ZeroLengthReadTouchesNothing) {
  std::vector<std::byte> buf(8, kStale);
  for (const std::uint64_t offset :
       {std::uint64_t{0}, std::uint64_t{kDeviceBytes},
        std::uint64_t{kDeviceBytes + 64}}) {
    this->holder_.dev.read(offset, std::span<std::byte>(buf).first(0));
  }
  for (const auto b : buf) EXPECT_EQ(b, kStale);
}

}  // namespace
}  // namespace sfg::storage
