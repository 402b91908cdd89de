#include "util/flat_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace sfg::util {
namespace {

TEST(FlatIndex, EmptyTableFindsNothing) {
  const flat_index none(0, 8);
  EXPECT_EQ(none.find(0), std::nullopt);
  EXPECT_EQ(none.find(flat_index::kEmpty), std::nullopt);

  flat_index one(1, 4);
  one.insert(7, 3);
  EXPECT_EQ(one.find(7), 3u);
  EXPECT_EQ(one.find(flat_index::kEmpty), std::nullopt);
  one.erase(7);
  EXPECT_EQ(one.find(7), std::nullopt);
}

/// Keys whose homes crowd the last and first two slots of a 32-slot
/// table, so clusters wrap around its end; the hash mirrors the table's.
std::vector<std::uint64_t> crowded_keys(std::size_t n) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 0; out.size() < n; ++k) {
    const std::uint64_t home32 = (k * 0x9e3779b97f4a7c15ULL) >> 59;
    if (home32 == 31 || home32 <= 1) out.push_back(k);
  }
  return out;
}

// Seeded inserts and erases at the table's live-key bound, with keys that
// collide: every lookup agrees with std::unordered_map, so backward-shift
// erase leaves every remaining key reachable.
TEST(FlatIndex, MatchesUnorderedMapUnderInsertAndErase) {
  for (const std::size_t spread : {4, 8}) {
    const std::size_t max_keys = 32 / spread;  // a 32-slot table
    const auto keys = crowded_keys(4 * max_keys);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("spread " + std::to_string(spread) + " seed " +
                   std::to_string(seed));
      flat_index table(max_keys, spread);
      std::unordered_map<std::uint64_t, std::size_t> ref;
      auto rng = make_stream(0xF1A7, seed);
      for (std::size_t op = 0; op < 4000; ++op) {
        const std::uint64_t key = keys[rng.uniform_below(keys.size())];
        if (const auto it = ref.find(key); it != ref.end()) {
          if (rng.uniform_below(2) == 0) {
            table.erase(key);
            ref.erase(it);
          }
        } else if (ref.size() < max_keys) {
          table.insert(key, op);
          ref.emplace(key, op);
        }
        for (const std::uint64_t k : keys) {
          const auto it = ref.find(k);
          ASSERT_EQ(table.find(k), it == ref.end()
                                       ? std::nullopt
                                       : std::optional(it->second))
              << "key " << k << " after op " << op;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sfg::util
