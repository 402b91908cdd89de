/// \file file_device.hpp
/// File-backed block device using positional I/O (pread/pwrite), so
/// concurrent accesses need no seek lock.  Tests use it to run the page
/// cache and an external graph over a real file; every program keeps its
/// CSR on storage::memory_device.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "storage/block_device.hpp"

namespace sfg::test {

class file_device final : public storage::block_device {
 public:
  /// Opens (creating if necessary) `path`.  If `truncate`, starts empty.
  explicit file_device(const std::string& path, bool truncate = true);
  ~file_device() override;

  file_device(const file_device&) = delete;
  file_device& operator=(const file_device&) = delete;

  void read(std::uint64_t offset, std::span<std::byte> out) override;
  void write(std::uint64_t offset, std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size_bytes() const override;

 private:
  int fd_ = -1;
};

}  // namespace sfg::test
