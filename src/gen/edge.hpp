/// \file edge.hpp
/// The raw directed edge type produced by the synthetic generators and
/// consumed by the distributed graph builder.
#pragma once

#include <array>
#include <compare>
#include <cstdint>

namespace sfg::gen {

struct edge64 {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;

  friend constexpr auto operator<=>(const edge64&, const edge64&) = default;
};

/// Order by (src, dst): the global sort key for edge list partitioning
/// (paper §III-A1).  Sorting by the full pair — not just src — is what
/// lets the sample sort split a hub's adjacency list across partitions
/// and keep edge counts balanced.
struct by_src_dst {
  constexpr bool operator()(const edge64& a, const edge64& b) const noexcept {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
};

/// The same order as a key projection for the radix and sample sorts
/// (sort/radix_sort.hpp): the key words {src, dst}.
struct src_dst_key {
  constexpr std::array<std::uint64_t, 2> operator()(
      const edge64& e) const noexcept {
    return {e.src, e.dst};
  }
};

}  // namespace sfg::gen
