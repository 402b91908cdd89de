/// \file radix_sort.hpp
/// Stable LSD radix sort by a key projection: the local sort of the
/// edge-list build (sample_sort.hpp) and of the builder's id, report and
/// directory sorts.
///
/// A key projection maps an element to one unsigned integer or to a
/// std::array<std::uint64_t, W> of key words, most significant word first
/// (an edge's {src, dst}); keys order as unsigned integers, word by word.
/// The passes follow the data, so there is no key-width parameter: one
/// read ORs every key word's difference from the first key, so only the
/// bits that vary are sorted; each word's varying bits are cut into equal
/// digits of at most kMaxDigitBits (at most bit_width(n) bits for a short
/// input); a second read fills every pass's histogram at once.  Each pass
/// then scatters stably into an n-element scratch buffer and back, and a
/// pass whose digit is the same for every element is skipped.  O(passes *
/// n) time, n elements of scratch, no comparisons.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

namespace sfg::sort {

/// Widest digit: 2^11 buckets of 8 bytes keep a pass's counters in L1.
inline constexpr unsigned kMaxDigitBits = 11;

/// A projected key as its words, most significant first.
template <std::unsigned_integral K>
constexpr std::array<std::uint64_t, 1> key_words(K k) noexcept {
  return {static_cast<std::uint64_t>(k)};
}
template <std::size_t W>
constexpr std::array<std::uint64_t, W> key_words(
    const std::array<std::uint64_t, W>& k) noexcept {
  return k;
}

/// The strict weak order a key projection induces on elements.
template <typename Key>
struct key_less {
  Key key;
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return key_words(key(a)) < key_words(key(b));
  }
};

/// Sort `data` ascending by `key`, stably.
template <typename T, typename Key>
void radix_sort(std::vector<T>& data, Key key) {
  const std::size_t n = data.size();
  if (n < 2) return;
  using words = std::remove_cvref_t<decltype(key_words(key(data[0])))>;
  constexpr std::size_t kWords = std::tuple_size_v<words>;

  // Plan: the bits that differ from the first key, cut into digits and
  // ordered least significant first (last word's low digit first).
  const words first = key_words(key(data[0]));
  words varying{};
  for (const T& x : data) {
    const words k = key_words(key(x));
    for (std::size_t w = 0; w < kWords; ++w) varying[w] |= k[w] ^ first[w];
  }
  const unsigned digit_cap = std::min<unsigned>(
      kMaxDigitBits, static_cast<unsigned>(std::bit_width(n)));
  struct pass {
    std::size_t word;
    unsigned shift;
    std::uint64_t mask;
  };
  std::vector<pass> passes;
  for (std::size_t w = kWords; w-- > 0;) {
    if (varying[w] == 0) continue;
    const auto lo = static_cast<unsigned>(std::countr_zero(varying[w]));
    const auto span = static_cast<unsigned>(std::bit_width(varying[w])) - lo;
    const unsigned count = (span + digit_cap - 1) / digit_cap;
    const unsigned width = (span + count - 1) / count;
    for (unsigned d = 0; d < count; ++d) {
      passes.push_back({w, lo + d * width, (std::uint64_t{1} << width) - 1});
    }
  }
  if (passes.empty()) return;  // every key equal

  // Every pass's histogram from one read.
  const std::size_t buckets = std::size_t{1} << digit_cap;
  std::vector<std::size_t> hist(passes.size() * buckets, 0);
  for (const T& x : data) {
    const words k = key_words(key(x));
    for (std::size_t q = 0; q < passes.size(); ++q) {
      const pass& ps = passes[q];
      ++hist[q * buckets + ((k[ps.word] >> ps.shift) & ps.mask)];
    }
  }

  const auto scratch = std::make_unique_for_overwrite<T[]>(n);
  T* src = data.data();
  T* dst = scratch.get();
  for (std::size_t q = 0; q < passes.size(); ++q) {
    const auto [word, shift, mask] = passes[q];
    std::size_t* offset = hist.data() + q * buckets;
    const std::size_t used = static_cast<std::size_t>(mask) + 1;
    if (std::find(offset, offset + used, n) != offset + used) continue;
    std::exclusive_scan(offset, offset + used, offset, std::size_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(key_words(key(src[i]))[word] >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != data.data()) std::copy(src, src + n, data.data());
}

}  // namespace sfg::sort
