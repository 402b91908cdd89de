/// Randomized property tests for the partition builder: for arbitrary
/// edge lists (random density, duplicates, self loops, directed or not),
/// any rank count and every partitioner, the distributed graph must
/// reconstruct exactly the serially-cleaned edge list and keep its
/// split/locator/directory invariants; edge_list must also stay exactly
/// edge-balanced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace sfg::graph {
namespace {

using gen::edge64;
using runtime::comm;
using runtime::launch;

struct fuzz_case {
  std::uint64_t seed;
  int p;
  bool undirected;
};

std::vector<edge64> random_edges(std::uint64_t seed) {
  auto rng = util::xoshiro256(seed);
  const std::uint64_t n = 2 + rng.uniform_below(300);
  const std::uint64_t m = rng.uniform_below(4 * n + 1);
  std::vector<edge64> edges;
  edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    if (rng.bernoulli(0.15)) {
      // Hub burst: many edges from one source.
      const std::uint64_t hub = rng.uniform_below(n);
      const std::uint64_t burst = 1 + rng.uniform_below(40);
      for (std::uint64_t b = 0; b < burst; ++b) {
        edges.push_back({hub, rng.uniform_below(n)});
      }
    } else {
      edges.push_back({rng.uniform_below(n), rng.uniform_below(n)});
    }
    if (rng.bernoulli(0.1) && !edges.empty()) {
      edges.push_back(edges.back());  // duplicate
    }
  }
  return edges;
}

std::vector<edge64> reference_clean(std::vector<edge64> edges,
                                    bool undirected) {
  if (undirected) gen::symmetrize(edges);
  std::erase_if(edges, [](const edge64& e) { return e.src == e.dst; });
  std::sort(edges.begin(), edges.end(), gen::by_src_dst{});
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

class BuilderFuzz : public ::testing::TestWithParam<
                        std::tuple<std::uint64_t, partitioner_kind>> {};

TEST_P(BuilderFuzz, ReconstructionAndInvariants) {
  const auto [seed, kind] = GetParam();
  auto rng = util::xoshiro256(seed ^ 0xf00d);
  const int p = 1 + static_cast<int>(rng.uniform_below(8));
  const bool undirected = rng.bernoulli(0.5);
  const auto raw = random_edges(seed);
  const auto expected = reference_clean(raw, undirected);

  launch(p, [&, seed = seed, kind = kind](comm& c) {
    const auto range = gen::slice_for_rank(raw.size(), c.rank(), p);
    std::vector<edge64> mine(
        raw.begin() + static_cast<std::ptrdiff_t>(range.begin),
        raw.begin() + static_cast<std::ptrdiff_t>(range.end));
    graph_build_config cfg;
    cfg.undirected = undirected;
    cfg.num_ghosts = static_cast<std::uint32_t>(seed % 17);
    cfg.partitioner.kind = kind;
    auto g = build_in_memory_graph(c, mine, cfg);

    if (kind == partitioner_kind::edge_list) {  // exact balance
      const std::uint64_t local = g.blueprint().adj_bits.size();
      const auto base = g.total_edges() / static_cast<std::uint64_t>(p);
      EXPECT_GE(local, base);
      EXPECT_LE(local, base + 1);
    }

    // Locator -> gid map and exact edge reconstruction.
    struct pair64 {
      std::uint64_t loc;
      std::uint64_t gid;
    };
    std::vector<pair64> mine_slots;
    std::uint64_t mastered = 0;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (g.is_master(s)) {
        mine_slots.push_back({g.locator_of(s).bits(), g.global_id_of(s)});
        ++mastered;
      } else {
        // Replica slots must appear in the split table.
        EXPECT_NE(g.max_owner(g.locator_of(s)), g.locator_of(s).owner());
      }
    }
    const auto all_slots =
        c.all_gatherv(std::span<const pair64>(mine_slots), nullptr);
    std::map<std::uint64_t, std::uint64_t> loc_to_gid;
    for (const auto& pr : all_slots) {
      const auto [it, inserted] = loc_to_gid.emplace(pr.loc, pr.gid);
      EXPECT_TRUE(inserted) << "duplicate master locator";
    }
    EXPECT_EQ(c.all_reduce(mastered, std::plus<>()), g.total_vertices());

    std::vector<edge64> local_edges;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      const auto src = g.global_id_of(s);
      g.for_each_out_edge(s, [&](vertex_locator t) {
        ASSERT_TRUE(loc_to_gid.contains(t.bits()));
        local_edges.push_back({src, loc_to_gid.at(t.bits())});
      });
    }
    auto gathered =
        c.all_gatherv(std::span<const edge64>(local_edges), nullptr);
    std::sort(gathered.begin(), gathered.end(), gen::by_src_dst{});
    EXPECT_EQ(gathered, expected) << "seed=" << seed << " p=" << p
                                  << " undirected=" << undirected;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, BuilderFuzz,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 25),
                       ::testing::ValuesIn(kAllPartitioners)),
    [](const ::testing::TestParamInfo<BuilderFuzz::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             partitioner_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sfg::graph
