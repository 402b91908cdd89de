/// \file flat_index.hpp
/// A u64 key -> index map in one flat open-addressing table, sized once
/// for a bound on live keys: a power of two at load <= 1/`spread`, a
/// multiplicative hash over the high bits of the product, linear probing,
/// and backward-shift erase, so no tombstones accumulate and neither a
/// lookup, an insert nor an erase allocates or divides.  Keys and values
/// are parallel arrays: a miss reads keys only.  The all-ones key marks
/// an empty slot and is never stored (looking it up finds nothing).
///
/// Used by the ghost filter (graph/distributed_graph.hpp: every push
/// probes it and most miss, so it is sized at load <= 1/8, where a miss
/// probes ~1.2 keys against ~2.5 at load 1/2) and by the page cache's
/// page table (storage/page_cache.hpp: at most one key per frame, load
/// <= 1/4, an erase and an insert per evicting miss).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace sfg::util {

class flat_index {
 public:
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();

  /// Room for `max_keys` live keys at load <= 1/`spread`.
  flat_index(std::size_t max_keys, std::size_t spread)
      : keys_(std::bit_ceil(std::max<std::size_t>(2, spread * max_keys)),
              kEmpty),
        values_(keys_.size()),
        shift_(64 - static_cast<unsigned>(std::countr_zero(keys_.size()))),
        mask_(keys_.size() - 1) {}

  [[nodiscard]] std::optional<std::size_t> find(
      std::uint64_t key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == kEmpty) return std::nullopt;
      if (keys_[i] == key) return values_[i];
    }
  }

  /// Map `key`, which is not mapped and not kEmpty, to `value`.
  void insert(std::uint64_t key, std::size_t value) noexcept {
    assert(key != kEmpty);
    std::size_t i = home(key);
    while (keys_[i] != kEmpty) {
      assert(keys_[i] != key);
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = value;
  }

  /// Unmap `key`, which is mapped, shifting the rest of its cluster back.
  void erase(std::uint64_t key) noexcept {
    std::size_t hole = home(key);
    while (keys_[hole] != key) hole = (hole + 1) & mask_;
    // Pull each later key of the cluster into the hole unless its home
    // lies cyclically after the hole, so every key stays reachable from
    // its home.
    for (std::size_t j = (hole + 1) & mask_; keys_[j] != kEmpty;
         j = (j + 1) & mask_) {
      if (((j - home(keys_[j])) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        values_[hole] = values_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
  }

 private:
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::size_t> values_;
  unsigned shift_;
  std::size_t mask_;
};

}  // namespace sfg::util
