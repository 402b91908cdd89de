#include "sort/sample_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "gen/edge.hpp"
#include "gen/generators.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace sfg::sort {
namespace {

using gen::by_src_dst;
using gen::edge64;
using gen::src_dst_key;
using runtime::comm;
using runtime::launch;

/// Gather all ranks' vectors on every rank (test helper).
template <typename T>
std::vector<T> gather_all(comm& c, const std::vector<T>& local) {
  return c.all_gatherv(std::span<const T>(local), nullptr);
}

std::uint64_t checksum(const std::vector<edge64>& edges) {
  std::uint64_t h = 0;
  for (const auto& e : edges) {
    h += util::splitmix64(e.src * 1315423911ULL + e.dst);
  }
  return h;
}

class SampleSortP : public ::testing::TestWithParam<int> {};

TEST_P(SampleSortP, SortsRandomData) {
  const int p = GetParam();
  launch(p, [](comm& c) {
    auto rng = util::make_stream(1, static_cast<std::uint64_t>(c.rank()));
    std::vector<std::uint64_t> local(500 + 97 * static_cast<std::size_t>(c.rank()));
    for (auto& v : local) v = rng();
    const auto input_all = gather_all(c, local);

    auto sorted = sample_sort(c, local, std::identity{});
    // Locally sorted.
    EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
    // Globally sorted and a permutation of the input.
    auto all = gather_all(c, sorted);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    auto expected = input_all;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(all, expected);
  });
}

TEST_P(SampleSortP, SortEvenIsExactlyBalanced) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    auto rng = util::make_stream(2, static_cast<std::uint64_t>(c.rank()));
    // Deliberately imbalanced input: rank r starts with r*200 elements.
    std::vector<std::uint64_t> local(static_cast<std::size_t>(c.rank()) * 200);
    for (auto& v : local) v = rng();
    const std::uint64_t total =
        c.all_reduce(static_cast<std::uint64_t>(local.size()), std::plus<>());

    auto sorted = sort_even(c, local, std::identity{});
    const auto base = total / static_cast<std::uint64_t>(p);
    EXPECT_GE(sorted.size(), base);
    EXPECT_LE(sorted.size(), base + 1);
    auto all = gather_all(c, sorted);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(all.size(), total);
  });
}

TEST_P(SampleSortP, HubHeavyEdgesStayBalanced) {
  // Scale-free stress: one "hub" source owns 60% of all edges.  Sorting
  // by (src, dst) must still split its adjacency list across ranks and
  // keep edge counts exactly even (paper §III-A1).
  const int p = GetParam();
  launch(p, [p](comm& c) {
    auto rng = util::make_stream(3, static_cast<std::uint64_t>(c.rank()));
    std::vector<edge64> local;
    constexpr std::uint64_t kHub = 5;
    for (int i = 0; i < 1000; ++i) {
      if (rng.uniform_real() < 0.6) {
        local.push_back({kHub, rng.uniform_below(10000)});
      } else {
        local.push_back({rng.uniform_below(1000), rng.uniform_below(10000)});
      }
    }
    const auto before = c.all_reduce(checksum(local), std::plus<>());
    auto sorted = sort_even(c, local, src_dst_key{});
    const auto total = c.all_reduce(
        static_cast<std::uint64_t>(sorted.size()), std::plus<>());
    EXPECT_EQ(total, static_cast<std::uint64_t>(p) * 1000u);
    const auto base = total / static_cast<std::uint64_t>(p);
    EXPECT_GE(sorted.size(), base);
    EXPECT_LE(sorted.size(), base + 1);
    // Multiset preserved.
    const auto after = c.all_reduce(checksum(sorted), std::plus<>());
    EXPECT_EQ(before, after);
    // Globally sorted by (src, dst).
    auto all = gather_all(c, sorted);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), by_src_dst{}));
  });
}

TEST_P(SampleSortP, AlreadySortedInput) {
  const int p = GetParam();
  launch(p, [](comm& c) {
    // Rank r holds [r*100, r*100+100): globally sorted already.
    std::vector<std::uint64_t> local(100);
    std::iota(local.begin(), local.end(),
              static_cast<std::uint64_t>(c.rank()) * 100);
    auto sorted = sort_even(c, local, std::identity{});
    auto all = gather_all(c, sorted);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(all.size(), static_cast<std::size_t>(c.size()) * 100u);
  });
}

TEST_P(SampleSortP, EmptyRanksHandled) {
  const int p = GetParam();
  launch(p, [](comm& c) {
    std::vector<std::uint64_t> local;
    if (c.rank() == 0) {
      local.resize(333);
      auto rng = util::make_stream(4, 0);
      for (auto& v : local) v = rng.uniform_below(50);  // heavy duplicates
    }
    auto sorted = sort_even(c, local, std::identity{});
    auto all = gather_all(c, sorted);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(all.size(), 333u);
  });
}

TEST_P(SampleSortP, AllEmpty) {
  launch(GetParam(), [](comm& c) {
    std::vector<std::uint32_t> local;
    auto sorted = sort_even(c, local, std::identity{});
    EXPECT_TRUE(sorted.empty());
  });
}

TEST_P(SampleSortP, TwoWordKeysMatchStdSort) {
  // Keys using all 64 bits of both words, with duplicates across ranks:
  // the splitters and the merge compare both words, so the gathered
  // result is exactly std::sort of the gathered input.
  launch(GetParam(), [](comm& c) {
    auto rng = util::make_stream(5, static_cast<std::uint64_t>(c.rank()));
    std::vector<edge64> local(400);
    for (auto& e : local) e = {rng() | (rng.uniform_below(3) << 62), rng()};
    local[7] = local[3];
    local.push_back({~0ULL, ~0ULL});
    auto expected = gather_all(c, local);
    std::sort(expected.begin(), expected.end(), by_src_dst{});
    auto sorted = sample_sort(c, local, src_dst_key{});
    EXPECT_EQ(gather_all(c, sorted), expected);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, SampleSortP,
                         ::testing::Values(1, 2, 3, 4, 8, 13));

TEST(SampleSort, RmatEdgesEndToEnd) {
  // The real pipeline input: RMAT slices sorted into an even edge-list
  // partition across 8 ranks.
  const gen::rmat_config cfg{.scale = 10, .edge_factor = 8, .seed = 11};
  launch(8, [&cfg](comm& c) {
    const auto range = gen::slice_for_rank(cfg.num_edges(), c.rank(), c.size());
    auto local = gen::rmat_slice(cfg, range.begin, range.end);
    auto sorted = sort_even(c, std::move(local), src_dst_key{});
    const auto total = c.all_reduce(
        static_cast<std::uint64_t>(sorted.size()), std::plus<>());
    EXPECT_EQ(total, cfg.num_edges());
    EXPECT_EQ(sorted.size(), cfg.num_edges() / 8);
    auto all = gather_all(c, sorted);
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), by_src_dst{}));
  });
}

}  // namespace
}  // namespace sfg::sort
