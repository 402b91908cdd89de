#include "storage/block_device.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"

namespace sfg::storage {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// memory_device
// ---------------------------------------------------------------------------

memory_device::memory_device(std::uint64_t initial_size)
    : data_(initial_size) {}

void memory_device::read(std::uint64_t offset, std::span<std::byte> out) {
  const std::scoped_lock lock(mu_);
  // One clamped copy; bytes past the end read as zero, like a sparse file.
  const std::size_t n =
      offset < data_.size()
          ? static_cast<std::size_t>(
                std::min<std::uint64_t>(out.size(), data_.size() - offset))
          : 0;
  if (n != 0) std::memcpy(out.data(), data_.data() + offset, n);
  if (n < out.size()) std::memset(out.data() + n, 0, out.size() - n);
}

void memory_device::write(std::uint64_t offset,
                          std::span<const std::byte> data) {
  const std::scoped_lock lock(mu_);
  if (offset + data.size() > data_.size()) data_.resize(offset + data.size());
  std::memcpy(data_.data() + offset, data.data(), data.size());
}

std::uint64_t memory_device::size_bytes() const {
  const std::scoped_lock lock(mu_);
  return data_.size();
}

// ---------------------------------------------------------------------------
// sim_nvram_device
// ---------------------------------------------------------------------------

sim_nvram_device::sim_nvram_device(block_device& inner, params p)
    : inner_(&inner), params_(p) {
  if (p.queue_depth <= 0) {
    throw std::invalid_argument("sim_nvram_device: queue_depth must be > 0");
  }
}

void sim_nvram_device::acquire_slot() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return inflight_ < params_.queue_depth; });
  ++inflight_;
}

void sim_nvram_device::release_slot() {
  {
    const std::scoped_lock lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

void sim_nvram_device::read(std::uint64_t offset, std::span<std::byte> out) {
  // Time the whole operation including the queue-slot wait: with many
  // concurrent requests the wait *is* the interesting number (§II-B).
  const std::uint64_t t0 = obs::metrics_on() ? now_us() : 0;
  acquire_slot();
  // The sleep models device service time; concurrent readers overlap their
  // sleeps up to queue_depth, exactly like NAND channel parallelism.
  std::this_thread::sleep_for(params_.read_latency);
  inner_->read(offset, out);
  {
    const std::scoped_lock lock(mu_);
    ++stats_.reads;
    stats_.bytes_read += out.size();
    if (t0 != 0) stats_.read_us.add(now_us() - t0);
  }
  if (obs::metrics_on()) {
    auto& reg = obs::metrics_registry::instance();
    reg.get_counter("nvram.reads").add_raw(1);
    reg.get_counter("nvram.bytes_read").add_raw(out.size());
    if (t0 != 0) reg.get_histogram("nvram.read_us").record_raw(now_us() - t0);
  }
  release_slot();
}

void sim_nvram_device::write(std::uint64_t offset,
                             std::span<const std::byte> data) {
  const std::uint64_t t0 = obs::metrics_on() ? now_us() : 0;
  acquire_slot();
  std::this_thread::sleep_for(params_.write_latency);
  inner_->write(offset, data);
  {
    const std::scoped_lock lock(mu_);
    ++stats_.writes;
    stats_.bytes_written += data.size();
    if (t0 != 0) stats_.write_us.add(now_us() - t0);
  }
  if (obs::metrics_on()) {
    auto& reg = obs::metrics_registry::instance();
    reg.get_counter("nvram.writes").add_raw(1);
    reg.get_counter("nvram.bytes_written").add_raw(data.size());
    if (t0 != 0) reg.get_histogram("nvram.write_us").record_raw(now_us() - t0);
  }
  release_slot();
}

std::uint64_t sim_nvram_device::size_bytes() const {
  return inner_->size_bytes();
}

sim_nvram_device::io_stats sim_nvram_device::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace sfg::storage
