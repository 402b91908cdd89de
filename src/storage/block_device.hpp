/// \file block_device.hpp
/// Byte-addressable block storage behind the user-space page cache.
///
/// The paper stores the graph's CSR on node-local NAND Flash (Fusion-io /
/// SATA SSD) accessed with direct I/O through a custom user-space page
/// cache (§II-B).  This repo has no NVRAM, so `sim_nvram_device` wraps any
/// device and injects per-operation latency with a bounded number of
/// in-flight operations — reproducing the two properties the paper's
/// design depends on: NVRAM is much slower than DRAM, and it needs *many
/// concurrent requests* to reach full bandwidth (§II-B).  The backing
/// device every program uses is `memory_device` (DRAM); a file-backed
/// device for tests lives in tests/support/file_device.hpp.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/stats_fields.hpp"

namespace sfg::storage {

class block_device {
 public:
  virtual ~block_device() = default;

  /// Read `out.size()` bytes starting at `offset`.  Thread-safe.
  ///
  /// Contract: the device writes every byte of `out` — its own bytes up
  /// to size_bytes(), zeros past it (a sparse-file read) — so `out` may
  /// hold anything on entry.  The page cache's miss fill relies on this:
  /// it reuses a frame without clearing it first.
  virtual void read(std::uint64_t offset, std::span<std::byte> out) = 0;

  /// Write `data` starting at `offset`, growing the device if needed.
  /// Thread-safe.
  virtual void write(std::uint64_t offset,
                     std::span<const std::byte> data) = 0;

  /// Current size in bytes.
  [[nodiscard]] virtual std::uint64_t size_bytes() const = 0;
};

/// DRAM-backed device: the "DRAM-only" baseline in Figure 9 / Table II.
class memory_device final : public block_device {
 public:
  explicit memory_device(std::uint64_t initial_size = 0);

  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size_bytes() const override;

 private:
  mutable std::mutex mu_;
  std::vector<std::byte> data_;
};

/// Latency + queue-depth model wrapped around another device.
///
/// Each read/write sleeps for the configured device latency while holding
/// one of `queue_depth` in-flight slots.  With enough concurrent requests
/// (the paper's "high levels of concurrent I/O"), throughput approaches
/// queue_depth operations per latency period; a single synchronous stream
/// gets exactly 1/latency — the asymmetry the asynchronous visitor design
/// exploits.
class sim_nvram_device final : public block_device {
 public:
  struct params {
    std::chrono::microseconds read_latency{80};    // NAND page read-ish
    std::chrono::microseconds write_latency{200};  // NAND program-ish
    int queue_depth = 32;
  };

  sim_nvram_device(block_device& inner, params p);

  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size_bytes() const override;

  /// Operation/byte counters plus per-operation latency histograms (µs).
  /// Counters are unconditional (one u64 add under the stats lock); the
  /// histograms read clocks, so they are recorded only while
  /// obs::metrics_on().  They measure the full operation as a caller sees
  /// it: queue-slot wait + modeled device latency + inner op — the number
  /// the paper's "needs many concurrent requests" claim is about.
  struct io_stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    obs::histogram read_us;
    obs::histogram write_us;
  };
  [[nodiscard]] io_stats stats() const;

 private:
  class inflight_slot;
  void acquire_slot();
  void release_slot();

  block_device* inner_;
  params params_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  io_stats stats_;
};

/// Bulk-write a trivially copyable array to a device.
template <typename T>
void write_array(block_device& dev, std::uint64_t offset,
                 std::span<const T> data) {
  static_assert(std::is_trivially_copyable_v<T>);
  dev.write(offset, std::as_bytes(data));
}

}  // namespace sfg::storage

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.
template <>
struct sfg::obs::stats_traits<sfg::storage::sim_nvram_device::io_stats> {
  using S = sfg::storage::sim_nvram_device::io_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"reads", &S::reads}, stats_field{"writes", &S::writes},
      stats_field{"bytes_read", &S::bytes_read},
      stats_field{"bytes_written", &S::bytes_written},
      stats_field{"read_us", &S::read_us},
      stats_field{"write_us", &S::write_us});
};
