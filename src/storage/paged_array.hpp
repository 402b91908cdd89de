/// \file paged_array.hpp
/// Typed array view over a block device through the page cache — how the
/// external-memory CSR stores its vertex-offset and adjacency arrays.  A
/// random access faults in exactly one page; sequential scans keep the
/// current page pinned (the paper's page-level locality optimization,
/// §V-A, is what makes visitor ordering by vertex id pay off here).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "storage/page_cache.hpp"

namespace sfg::storage {

template <typename T>
class paged_array {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// View `count` elements of type T starting at byte `base_offset` on the
  /// cache's device.  `base_offset` must be page-aligned and the page size
  /// a multiple of sizeof(T), so elements never straddle pages.
  paged_array(page_cache& cache, std::uint64_t base_offset, std::size_t count)
      : cache_(&cache), base_(base_offset), count_(count) {
    assert(base_offset % cache.page_size() == 0);
    assert(cache.page_size() % sizeof(T) == 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Random access; one page fault worst case.
  [[nodiscard]] T operator[](std::size_t i) const {
    assert(i < count_);
    const std::uint64_t byte_off = base_ + i * sizeof(T);
    const std::uint64_t page = byte_off / cache_->page_size();
    const std::size_t in_page = byte_off % cache_->page_size();
    // A random access demands one element; the full page the device moves
    // for it is the amplification the cache accounts.
    const auto ref = cache_->get(page, sizeof(T));
    T out;
    std::memcpy(&out, ref.data().data() + in_page, sizeof(T));
    return out;
  }

  /// Sequential cursor over [index, end): pins each page once for all its
  /// elements in the range.
  class cursor {
   public:
    cursor(const paged_array& arr, std::size_t index, std::size_t end)
        : arr_(&arr), index_(index), end_(std::min(end, arr.count_)) {}

    [[nodiscard]] bool done() const noexcept { return index_ >= end_; }
    [[nodiscard]] std::size_t index() const noexcept { return index_; }

    /// Current element.  Faults/pins the containing page on first touch.
    T value() {
      if (bytes_ == nullptr) pin_page();
      T out;
      std::memcpy(&out, bytes_ + in_page_, sizeof(T));
      return out;
    }

    void advance() {
      ++index_;
      in_page_ += sizeof(T);
      if (in_page_ >= arr_->cache_->page_size()) {  // next page
        page_ = {};
        bytes_ = nullptr;
      }
    }

   private:
    void pin_page() {
      const std::uint64_t byte_off = arr_->base_ + index_ * sizeof(T);
      const std::uint64_t page = byte_off / arr_->cache_->page_size();
      in_page_ = byte_off % arr_->cache_->page_size();
      // A scan consumes the rest of this page, bounded by the rest of its
      // range, so charge that span — sequential reads then show
      // amplification near 1 while random probes show page_size/sizeof(T).
      const std::size_t left_in_page =
          arr_->cache_->page_size() - in_page_;
      const std::size_t left_in_range = (end_ - index_) * sizeof(T);
      page_ = arr_->cache_->get(page, std::min(left_in_page, left_in_range));
      bytes_ = page_.data().data();
    }

    const paged_array* arr_;
    std::size_t index_;
    std::size_t end_;
    std::size_t in_page_ = 0;
    page_cache::page_ref page_;
    const std::byte* bytes_ = nullptr;  ///< page_'s bytes while pinned
  };

  /// A cursor over [begin, end), `end` clamped to size().
  [[nodiscard]] cursor scan(
      std::size_t begin = 0,
      std::size_t end = std::numeric_limits<std::size_t>::max()) const {
    return cursor(*this, begin, end);
  }

  /// Apply `fn(index, value)` to elements [begin, end) in order until it
  /// returns false; one pin per page touched.  Returns true iff every
  /// element was visited.
  template <typename Fn>
  bool for_each_while(std::size_t begin, std::size_t end, Fn&& fn) const {
    assert(begin <= end && end <= count_);
    for (auto cur = scan(begin, end); !cur.done(); cur.advance()) {
      if (!fn(cur.index(), cur.value())) return false;
    }
    return true;
  }

  /// Apply `fn(index, value)` to elements [begin, end), page-batched.
  template <typename Fn>
  void for_each(std::size_t begin, std::size_t end, Fn&& fn) const {
    for_each_while(begin, end, [&fn](std::size_t i, T v) {
      fn(i, v);
      return true;
    });
  }

 private:
  page_cache* cache_;
  std::uint64_t base_;
  std::size_t count_;
};

}  // namespace sfg::storage
