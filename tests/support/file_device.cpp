#include "support/file_device.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace sfg::test {

file_device::file_device(const std::string& path, bool truncate) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("file_device: cannot open " + path + ": " +
                             std::strerror(errno));
  }
}

file_device::~file_device() {
  if (fd_ >= 0) ::close(fd_);
}

void file_device::read(std::uint64_t offset, std::span<std::byte> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("file_device read: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      // Past EOF: zero-fill, like a sparse mapping.
      std::memset(out.data() + done, 0, out.size() - done);
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

void file_device::write(std::uint64_t offset,
                        std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("file_device write: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

std::uint64_t file_device::size_bytes() const {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error(std::string("file_device fstat: ") +
                             std::strerror(errno));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace sfg::test
