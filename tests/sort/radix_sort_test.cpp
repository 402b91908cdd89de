#include "sort/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "gen/generators.hpp"
#include "util/rng.hpp"

namespace sfg::sort {
namespace {

using key_pair = std::array<std::uint64_t, 2>;

/// A two-word key plus the element's input position, so a comparison with
/// std::stable_sort also checks that equal keys keep their input order.
struct tagged {
  std::uint64_t hi;
  std::uint64_t lo;
  std::uint64_t tag;

  friend bool operator==(const tagged&, const tagged&) = default;
};

struct hi_lo_key {
  std::array<std::uint64_t, 2> operator()(const tagged& t) const {
    return {t.hi, t.lo};
  }
};

std::vector<tagged> tag_inputs(const std::vector<key_pair>& keys) {
  std::vector<tagged> out;
  out.reserve(keys.size());
  for (const auto& k : keys) out.push_back({k[0], k[1], out.size()});
  return out;
}

/// radix_sort against std::stable_sort by the same key.
void expect_matches_stable_sort(const std::vector<key_pair>& keys) {
  auto got = tag_inputs(keys);
  auto want = got;
  radix_sort(got, hi_lo_key{});
  std::stable_sort(want.begin(), want.end(), key_less<hi_lo_key>{});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "position " << i << " of " << got.size();
  }
}

std::vector<key_pair> random_keys(std::size_t n, std::uint64_t seed) {
  auto rng = util::make_stream(seed, 0);
  std::vector<key_pair> keys(n);
  for (auto& k : keys) k = {rng(), rng()};
  return keys;
}

TEST(RadixSort, RandomKeysUsingAll64BitsOfBothWords) {
  const auto keys = random_keys(20000, 1);
  std::uint64_t hi_bits = 0;
  std::uint64_t lo_bits = 0;
  for (const auto& k : keys) {
    hi_bits |= k[0];
    lo_bits |= k[1];
  }
  ASSERT_EQ(hi_bits, ~std::uint64_t{0});
  ASSERT_EQ(lo_bits, ~std::uint64_t{0});
  expect_matches_stable_sort(keys);
}

TEST(RadixSort, WordOrderDecides) {
  // The first word outranks the second: (1, 0) follows (0, max).
  std::vector<key_pair> keys;
  auto rng = util::make_stream(2, 0);
  for (int i = 0; i < 3000; ++i) {
    keys.push_back({rng.uniform_below(4), rng()});
  }
  keys.push_back({0, ~std::uint64_t{0}});
  keys.push_back({1, 0});
  expect_matches_stable_sort(keys);
}

TEST(RadixSort, RmatSkewedEdges) {
  const gen::rmat_config cfg{.scale = 11, .edge_factor = 8, .seed = 5};
  std::vector<key_pair> keys;
  for (const auto& e : gen::rmat_slice(cfg, 0, cfg.num_edges())) {
    keys.push_back({e.src, e.dst});
  }
  expect_matches_stable_sort(keys);
}

TEST(RadixSort, AllEqualSortedReversedEmptyAndOne) {
  expect_matches_stable_sort({});
  expect_matches_stable_sort({key_pair{7, 9}});
  expect_matches_stable_sort(std::vector<key_pair>(1000, key_pair{~0ULL, 3}));
  auto keys = random_keys(5000, 3);
  std::sort(keys.begin(), keys.end());
  expect_matches_stable_sort(keys);
  std::reverse(keys.begin(), keys.end());
  expect_matches_stable_sort(keys);
}

TEST(RadixSort, ShortInputsAndNarrowBitRanges) {
  // Short inputs cap the digit at bit_width(n); each mask leaves a few
  // varying bits at the top, the bottom or the middle of a word, with the
  // other bits constant and non-zero.
  auto rng = util::make_stream(4, 0);
  const std::uint64_t masks[] = {0x1, 0xF000'0000'0000'0000ULL,
                                 0x0000'0FF0'0000'0000ULL, ~0ULL};
  for (std::size_t n = 2; n < 70; n += 3) {
    for (const auto m : masks) {
      std::vector<key_pair> keys(n);
      for (auto& k : keys) {
        k = {(rng() & m) | (0x5555'5555'5555'5555ULL & ~m), rng() & m};
      }
      expect_matches_stable_sort(keys);
    }
  }
}

TEST(RadixSort, SingleWordKeys) {
  auto rng = util::make_stream(6, 0);
  std::vector<std::uint64_t> ids(10000);
  for (auto& v : ids) v = rng.uniform_below(1000) << 20;
  auto want = ids;
  radix_sort(ids, std::identity{});
  std::sort(want.begin(), want.end());
  EXPECT_EQ(ids, want);

  std::vector<std::uint32_t> small(777);
  for (auto& v : small) v = static_cast<std::uint32_t>(rng());
  auto want_small = small;
  radix_sort(small, std::identity{});
  std::sort(want_small.begin(), want_small.end());
  EXPECT_EQ(small, want_small);
}

}  // namespace
}  // namespace sfg::sort
