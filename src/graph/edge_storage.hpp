/// \file edge_storage.hpp
/// Storage policies for the CSR adjacency array of a graph partition.
///
/// The paper stores each local partition as compressed sparse row
/// (§III-A1); in the external-memory experiments the edge array lives on
/// NAND Flash behind the user-space page cache (§VII-C).  Both policies
/// expose the same minimal API (a walker whose ranged walk can stop early,
/// ranged binary search), so `distributed_graph<Store>` is oblivious to
/// where its edges live — exactly the property that let the paper run the
/// same algorithm DRAM-only and at 32x DRAM size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/paged_array.hpp"

namespace sfg::graph {

/// Adjacency bits held in DRAM (the "DRAM-only" configuration).
class in_memory_edges {
 public:
  in_memory_edges() = default;
  explicit in_memory_edges(std::vector<std::uint64_t> bits)
      : bits_(std::move(bits)) {}

  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }

  /// Walks ranges of the array; must not outlive the store.
  class walker {
   public:
    explicit walker(const in_memory_edges& e) : bits_(e.bits_.data()) {}

    /// Apply `fn(bits)` to [begin, end) in order until it returns false.
    /// Returns true iff the whole range was visited.
    template <typename Fn>
    bool for_each_while(std::size_t begin, std::size_t end, Fn&& fn) {
      for (std::size_t i = begin; i < end; ++i) {
        if (!fn(bits_[i])) return false;
      }
      return true;
    }

   private:
    const std::uint64_t* bits_;
  };

  [[nodiscard]] walker walk() const { return walker(*this); }

  /// True if `key` occurs in the *sorted* range [begin, end).
  [[nodiscard]] bool contains_in_range(std::size_t begin, std::size_t end,
                                       std::uint64_t key) const {
    return std::binary_search(bits_.begin() + static_cast<std::ptrdiff_t>(begin),
                              bits_.begin() + static_cast<std::ptrdiff_t>(end),
                              key);
  }

 private:
  std::vector<std::uint64_t> bits_;
};

/// Adjacency bits on a block device behind a page cache (the NVRAM
/// configuration).  Constructed from a paged_array previously populated
/// with write_array(); the cache bounds DRAM use.
class external_edges {
 public:
  external_edges(storage::page_cache& cache, std::uint64_t base_offset,
                 std::size_t count)
      : arr_(cache, base_offset, count) {}

  [[nodiscard]] std::size_t size() const noexcept { return arr_.size(); }

  /// The same walk through one paged_array cursor: one page-cache pin per
  /// page touched, not one per edge, and a range that starts on the page
  /// the previous range left pinned reuses that pin.  Holds at most one
  /// page pinned until destroyed; must not outlive the store.
  class walker {
   public:
    explicit walker(const external_edges& e) : cur_(e.arr_.scan(0, 0)) {}

    template <typename Fn>
    bool for_each_while(std::size_t begin, std::size_t end, Fn&& fn) {
      for (cur_.seek(begin, end); !cur_.done(); cur_.advance()) {
        if (!fn(cur_.value())) return false;
      }
      return true;
    }

   private:
    storage::paged_array<std::uint64_t>::cursor cur_;
  };

  [[nodiscard]] walker walk() const { return walker(*this); }

  [[nodiscard]] bool contains_in_range(std::size_t begin, std::size_t end,
                                       std::uint64_t key) const {
    // Classic binary search over the paged array; O(lg n) page touches
    // worst case, usually 1-2 thanks to the cache.
    std::size_t lo = begin;
    std::size_t hi = end;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::uint64_t v = arr_[mid];
      if (v < key) {
        lo = mid + 1;
      } else if (v > key) {
        hi = mid;
      } else {
        return true;
      }
    }
    return false;
  }

 private:
  storage::paged_array<std::uint64_t> arr_;
};

}  // namespace sfg::graph
