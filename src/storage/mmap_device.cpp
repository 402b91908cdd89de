#include "storage/mmap_device.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

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

mmap_device::mmap_device(const std::string& path, std::uint64_t size_bytes)
    : size_(size_bytes) {
  if (size_bytes == 0) {
    throw std::invalid_argument("mmap_device: size must be > 0");
  }
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("mmap_device: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(size_bytes)) != 0) {
    ::close(fd_);
    throw std::runtime_error("mmap_device: ftruncate failed: " +
                             std::string(std::strerror(errno)));
  }
  void* map = ::mmap(nullptr, size_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) {
    ::close(fd_);
    throw std::runtime_error("mmap_device: mmap failed: " +
                             std::string(std::strerror(errno)));
  }
  map_ = static_cast<std::byte*>(map);
}

mmap_device::~mmap_device() {
  if (map_ != nullptr) ::munmap(map_, size_);
  if (fd_ >= 0) ::close(fd_);
}

void mmap_device::read(std::uint64_t offset, std::span<std::byte> out) {
  if (offset >= size_) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  const std::uint64_t t0 = obs::metrics_on() ? now_us() : 0;
  const std::uint64_t n =
      std::min<std::uint64_t>(out.size(), size_ - offset);
  std::memcpy(out.data(), map_ + offset, n);
  if (n < out.size()) std::memset(out.data() + n, 0, out.size() - n);
  const std::scoped_lock lock(stats_mu_);
  ++stats_.reads;
  stats_.bytes_read += out.size();
  if (t0 != 0) stats_.read_us.add(now_us() - t0);
}

void mmap_device::write(std::uint64_t offset,
                        std::span<const std::byte> data) {
  if (offset + data.size() > size_) {
    throw std::out_of_range("mmap_device: write beyond fixed mapping");
  }
  const std::uint64_t t0 = obs::metrics_on() ? now_us() : 0;
  std::memcpy(map_ + offset, data.data(), data.size());
  const std::scoped_lock lock(stats_mu_);
  ++stats_.writes;
  stats_.bytes_written += data.size();
  if (t0 != 0) stats_.write_us.add(now_us() - t0);
}

void mmap_device::sync() {
  if (::msync(map_, size_, MS_SYNC) != 0) {
    throw std::runtime_error("mmap_device: msync failed: " +
                             std::string(std::strerror(errno)));
  }
}

mmap_device::io_stats mmap_device::stats() const {
  const std::scoped_lock lock(stats_mu_);
  return stats_;
}

void mmap_device::reset_stats() {
  const std::scoped_lock lock(stats_mu_);
  stats_ = io_stats{};
}

}  // namespace sfg::storage
