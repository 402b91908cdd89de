/// \file frontier.hpp
/// BFS next-frontier bitmap (DESIGN.md §13).
///
/// The level-synchronous traversal collects the vertices its masters
/// claim during a level in one packed bitmap (one bit per local slot,
/// 64-bit words) with a tracked count.  The words are the wire format of
/// the per-level broadcast; after the gather the traversal clears the
/// bitmap for the next level's claims.  No scan iterates it: a replica
/// slice's frontier bit lives in its master's section of the gathered
/// bitmap, so both scans walk every local source against the gathered
/// words.
///
/// Allocation discipline: all memory is acquired in resize(); insert and
/// clear never touch the heap (the counting-new TU in
/// tests/core/frontier_alloc_test.cpp enforces this), so the per-level
/// cycle of the BFS is allocation-free in steady state.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/mem.hpp"
#include "util/bits.hpp"

namespace sfg::core {

class frontier {
 public:
  /// Acquire capacity for `num_bits` bits and reset to empty.  The only
  /// member that allocates.
  void resize(std::size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign(util::div_ceil(num_bits, 64), 0);
    count_ = 0;
    // All capacity is acquired here (see allocation discipline above), so
    // this is the one ledger sync the frontier ever needs — the hot
    // members stay charge-free as well as allocation-free.
    mem_.set(words_.capacity() * sizeof(std::uint64_t));
  }

  /// Set bit `i`; returns true if it was newly set.
  bool insert(std::size_t i) {
    assert(i < num_bits_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    if ((w & m) != 0) return false;
    w |= m;
    ++count_;
    return true;
  }

  /// Number of set bits (tracked, not recounted).
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// The packed words — the wire format of the per-level bitmap
  /// broadcast (rank-ordered concatenation via comm::all_gatherv).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// Reset to empty without releasing capacity: one word fill.
  void clear() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

 private:
  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
  obs::mem_tracker mem_{obs::mem_subsystem::frontier};
};

}  // namespace sfg::core
