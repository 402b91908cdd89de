#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "runtime/runtime.hpp"

namespace sfg::graph {
namespace {

using gen::edge64;
using runtime::comm;
using runtime::launch;

/// The paper's Figure 3 edge list: 8 vertices, 16 directed edges.
std::vector<edge64> paper_figure3_edges() {
  return {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {2, 4}, {2, 5}, {2, 6},
          {2, 7}, {3, 2}, {4, 2}, {5, 2}, {5, 7}, {6, 2}, {7, 2}, {7, 5}};
}

TEST(Builder, PaperFigure3Example) {
  // Build the figure's exact graph on 4 partitions and verify the split
  // ownership the paper reports: min_owner(2)=0, max_owner(2)=2,
  // min_owner(5)=2, max_owner(5)=3.
  launch(4, [](comm& c) {
    // Directed edges exactly as given; no cleanup.
    graph_build_config cfg;
    cfg.undirected = false;
    cfg.remove_self_loops = false;
    cfg.remove_duplicates = false;
    cfg.num_ghosts = 0;
    std::vector<edge64> mine;
    const auto all = paper_figure3_edges();
    const auto range = gen::slice_for_rank(all.size(), c.rank(), 4);
    mine.assign(all.begin() + static_cast<std::ptrdiff_t>(range.begin),
                all.begin() + static_cast<std::ptrdiff_t>(range.end));

    const auto bp = build_partition(c, mine, cfg);

    // 16 edges over 4 partitions: exactly 4 each.
    EXPECT_EQ(bp.adj_bits.size(), 4u);
    EXPECT_EQ(bp.total_edges, 16u);
    EXPECT_EQ(bp.total_vertices, 8u);

    // Split table must contain exactly vertices 2 and 5.
    ASSERT_EQ(bp.split_table.size(), 2u);
    std::map<std::uint64_t, split_entry> split;
    for (const auto& e : bp.split_table) split[e.global_id] = e;
    ASSERT_TRUE(split.contains(2));
    ASSERT_TRUE(split.contains(5));
    EXPECT_EQ(split[2].owners.front(), 0);  // min_owner(2) = 0
    EXPECT_EQ(split[2].owners.back(), 2);   // max_owner(2) = 2
    EXPECT_EQ((split[2].owners), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(split[5].owners.front(), 2);  // min_owner(5) = 2
    EXPECT_EQ(split[5].owners.back(), 3);   // max_owner(5) = 3
    EXPECT_EQ(split[2].global_degree, 6u);  // out-degree of vertex 2
    EXPECT_EQ(split[5].global_degree, 2u);
  });
}

/// Translate a blueprint-backed graph back into global-id edges, gathered
/// on every rank.  Used to verify the build against a serial reference.
template <typename Graph>
std::vector<edge64> reconstruct_edges(comm& c, const Graph& g) {
  // Build the global locator -> gid map.
  struct pair64 {
    std::uint64_t loc;
    std::uint64_t gid;
  };
  std::vector<pair64> mine;
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    if (g.is_master(s)) {
      mine.push_back({g.locator_of(s).bits(), g.global_id_of(s)});
    }
  }
  const auto all = c.all_gatherv(std::span<const pair64>(mine), nullptr);
  std::map<std::uint64_t, std::uint64_t> loc_to_gid;
  for (const auto& pr : all) loc_to_gid[pr.loc] = pr.gid;

  std::vector<edge64> local_edges;
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    const std::uint64_t src = g.global_id_of(s);
    g.for_each_out_edge(s, [&](vertex_locator t) {
      local_edges.push_back({src, loc_to_gid.at(t.bits())});
    });
  }
  auto gathered = c.all_gatherv(std::span<const edge64>(local_edges), nullptr);
  std::sort(gathered.begin(), gathered.end(), gen::by_src_dst{});
  return gathered;
}

/// Serial reference of the cleanup pipeline.
std::vector<edge64> reference_clean(std::vector<edge64> edges,
                                    const graph_build_config& cfg) {
  if (cfg.undirected) gen::symmetrize(edges);
  if (cfg.remove_self_loops) {
    std::erase_if(edges, [](const edge64& e) { return e.src == e.dst; });
  }
  std::sort(edges.begin(), edges.end(), gen::by_src_dst{});
  if (cfg.remove_duplicates) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return edges;
}

/// (world size, partitioner): everything after placement — owner chains,
/// split table, directory, sinks, ghosts — is one derivation for every
/// scheme, so its properties are checked under every scheme.
class BuilderP
    : public ::testing::TestWithParam<std::tuple<int, partitioner_kind>> {
 protected:
  static int world() { return std::get<0>(GetParam()); }
  /// The default build configuration under this case's partitioner.
  static graph_build_config config() {
    graph_build_config cfg;
    cfg.partitioner.kind = std::get<1>(GetParam());
    return cfg;
  }
};

/// World sizes for the edge_list-only cases, which assert its exact
/// floor/ceil chunking.
class EdgeListBuilderP : public ::testing::TestWithParam<int> {};

TEST_P(BuilderP, RmatGraphMatchesSerialReference) {
  const int p = world();
  const gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 17};
  graph_build_config cfg = config();
  cfg.num_ghosts = 16;
  const auto expected =
      reference_clean(gen::rmat_slice(rc, 0, rc.num_edges()), cfg);

  launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), cfg);
    EXPECT_EQ(g.total_edges(), expected.size());
    const auto actual = reconstruct_edges(c, g);
    EXPECT_EQ(actual, expected);
  });
}

TEST_P(EdgeListBuilderP, EdgeBalanceIsExact) {
  const int p = GetParam();
  const gen::rmat_config rc{.scale = 9, .edge_factor = 8, .seed = 3};
  launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), {});
    const std::uint64_t local = g.local_edge_count();
    const std::uint64_t total = g.total_edges();
    const auto base = total / static_cast<std::uint64_t>(p);
    EXPECT_GE(local, base);
    EXPECT_LE(local, base + 1);
  });
}

// The in-memory factory moves the adjacency into the edge store, so the
// graph holds one copy; the CSR offsets still describe the rows the store
// walks.
TEST_P(BuilderP, InMemoryGraphHoldsOneAdjacencyCopy) {
  const gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 29};
  launch(world(), [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), config());
    EXPECT_TRUE(g.blueprint().adj_bits.empty());
    std::uint64_t walked = 0;
    for (std::size_t s = 0; s < g.num_sources(); ++s) {
      g.for_each_out_edge(s, [&](vertex_locator) { ++walked; });
    }
    EXPECT_EQ(g.local_edge_count(), walked);
    EXPECT_EQ(c.all_reduce(walked, std::plus<>()), g.total_edges());
  });
}

TEST_P(BuilderP, DegreesSumToTotalEdges) {
  const gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 5};
  launch(world(), [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), config());
    // Sum of global degrees over *master* slots == total directed edges.
    std::uint64_t local_sum = 0;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (g.is_master(s)) local_sum += g.degree_of(s);
    }
    const auto total = c.all_reduce(local_sum, std::plus<>());
    EXPECT_EQ(total, g.total_edges());
  });
}

TEST_P(BuilderP, SplitVerticesResolveOnEveryOwner) {
  const gen::rmat_config rc{.scale = 8, .edge_factor = 16, .seed = 11};
  launch(world(), [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), config());
    for (const auto& e : g.split_table()) {
      const auto loc = vertex_locator::from_bits(e.locator_bits);
      EXPECT_EQ(loc.owner(), e.owners.front());
      EXPECT_EQ(g.max_owner(loc), e.owners.back());
      const bool held_here = std::find(e.owners.begin(), e.owners.end(),
                                       c.rank()) != e.owners.end();
      const auto slot = g.slot_of(loc);
      EXPECT_EQ(slot.has_value(), held_here);
      if (slot) {
        EXPECT_EQ(g.global_id_of(*slot), e.global_id);
        EXPECT_EQ(g.degree_of(*slot), e.global_degree);
      }
      // next_owner_after walks the chain.
      int at = e.owners.front();
      for (std::size_t i = 1; i < e.owners.size(); ++i) {
        at = g.next_owner_after(loc, at);
        EXPECT_EQ(at, e.owners[i]);
      }
      EXPECT_EQ(g.next_owner_after(loc, e.owners.back()), -1);
    }
  });
}

TEST_P(BuilderP, LocateFindsEveryVertex) {
  const gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 13};
  launch(world(), [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), config());
    // locate() is collective, so every rank must look up the same gid
    // sequence: gather all mastered gids first.
    struct gid_loc {
      std::uint64_t gid;
      std::uint64_t loc_bits;
    };
    std::vector<gid_loc> mine;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (g.is_master(s)) {
        mine.push_back({g.global_id_of(s), g.locator_of(s).bits()});
      }
    }
    auto all = c.all_gatherv(std::span<const gid_loc>(mine), nullptr);
    std::sort(all.begin(), all.end(),
              [](const gid_loc& a, const gid_loc& b) { return a.gid < b.gid; });
    // Subsample to keep the collective count reasonable.
    for (std::size_t i = 0; i < all.size(); i += 7) {
      const auto loc = g.locate(all[i].gid);
      ASSERT_TRUE(loc.valid());
      EXPECT_EQ(loc.bits(), all[i].loc_bits);
    }
    // A non-existent id resolves to invalid on all ranks.
    const auto missing = g.locate(std::uint64_t{1} << 40);
    EXPECT_FALSE(missing.valid());
  });
}

TEST_P(BuilderP, GhostsAreRemoteHubs) {
  const gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 19};
  launch(world(), [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    graph_build_config cfg = config();
    cfg.num_ghosts = 8;
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), cfg);
    EXPECT_LE(g.num_ghosts(), 8u);

    // Recount local in-degree of remote targets and verify the chosen
    // ghosts are exactly a top-k (no non-ghost beats the weakest ghost).
    std::map<std::uint64_t, std::uint64_t> remote_count;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      g.for_each_out_edge(s, [&](vertex_locator t) {
        if (t.owner() != c.rank()) ++remote_count[t.bits()];
      });
    }
    std::uint64_t weakest_ghost = UINT64_MAX;
    for (const auto bits : g.blueprint().ghost_locator_bits) {
      const auto loc = vertex_locator::from_bits(bits);
      EXPECT_NE(loc.owner(), c.rank());
      EXPECT_TRUE(g.ghost_slot_of(loc).has_value());
      weakest_ghost = std::min(weakest_ghost, remote_count.at(bits));
    }
    if (g.num_ghosts() == 8u) {  // k fully used: check top-k property
      for (const auto& [bits, count] : remote_count) {
        if (!g.ghost_slot_of(vertex_locator::from_bits(bits))) {
          EXPECT_LE(count, weakest_ghost);
        }
      }
    }
  });
}

/// (num_ghosts, ranks): the flat ghost index must agree with the
/// blueprint's ghost list exactly — every ghost at its own index, every
/// other adjacency target (and the index's empty key) absent.
class GhostIndexP
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(GhostIndexP, SlotOfMatchesBlueprintIndex) {
  const auto [num_ghosts, p] = GetParam();
  const gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 19};
  launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    graph_build_config cfg;
    cfg.num_ghosts = num_ghosts;
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), cfg);
    const auto& ghosts = g.blueprint().ghost_locator_bits;
    ASSERT_EQ(g.num_ghosts(), ghosts.size());
    EXPECT_LE(ghosts.size(), num_ghosts);
    for (std::size_t i = 0; i < ghosts.size(); ++i) {
      EXPECT_EQ(g.ghost_slot_of(vertex_locator::from_bits(ghosts[i])),
                std::optional<std::size_t>(i));
    }
    const std::set<std::uint64_t> ghost_set(ghosts.begin(), ghosts.end());
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      g.for_each_out_edge(s, [&](vertex_locator t) {
        if (!ghost_set.contains(t.bits())) {
          EXPECT_EQ(g.ghost_slot_of(t), std::nullopt);
        }
      });
    }
    EXPECT_EQ(g.ghost_slot_of(vertex_locator::invalid()), std::nullopt);
  });
}

INSTANTIATE_TEST_SUITE_P(
    GhostsByWorldSize, GhostIndexP,
    ::testing::Combine(::testing::Values(0u, 1u, 8u, 256u),
                       ::testing::Values(1, 4)));

TEST_P(BuilderP, DirectedGraphSinksGetSlots) {
  launch(world(), [](comm& c) {
    // Star digraph: 0 -> 1..20; vertices 1..20 are pure sinks.
    std::vector<edge64> mine;
    if (c.rank() == 0) {
      for (std::uint64_t t = 1; t <= 20; ++t) mine.push_back({0, t});
    }
    graph_build_config cfg = config();
    cfg.undirected = false;
    auto g = build_in_memory_graph(c, mine, cfg);
    EXPECT_EQ(g.total_vertices(), 21u);
    EXPECT_EQ(g.total_edges(), 20u);
    // Each sink resolves somewhere, with degree 0.
    for (std::uint64_t t = 1; t <= 20; ++t) {
      const auto loc = g.locate(t);
      ASSERT_TRUE(loc.valid());
      if (const auto slot = g.slot_of(loc)) {
        EXPECT_EQ(g.degree_of(*slot), 0u);
        EXPECT_EQ(g.local_out_degree(*slot), 0u);
      }
    }
  });
}

TEST_P(BuilderP, SelfLoopsAndDuplicatesRemoved) {
  launch(world(), [](comm& c) {
    std::vector<edge64> mine;
    if (c.rank() == 0) {
      mine = {{1, 1}, {1, 2}, {1, 2}, {1, 2}, {2, 1}, {3, 3}, {2, 3}};
    }
    auto g = build_in_memory_graph(c, mine, config());  // undirected + cleanup
    // Unique undirected edges: {1,2}, {2,3} -> 4 directed.
    EXPECT_EQ(g.total_edges(), 4u);
    EXPECT_EQ(g.total_vertices(), 3u);
  });
}

TEST_P(BuilderP, EmptyGraph) {
  launch(world(), [](comm& c) {
    auto g = build_in_memory_graph(c, {}, config());
    EXPECT_EQ(g.total_edges(), 0u);
    EXPECT_EQ(g.total_vertices(), 0u);
    EXPECT_EQ(g.num_slots(), 0u);
  });
}

TEST_P(EdgeListBuilderP, HubDominatedGraphSplitsTheHub) {
  // One vertex owns ~all edges; with p > 1 its adjacency list *must* span
  // multiple partitions (the whole point of edge-list partitioning).
  const int p = GetParam();
  if (p == 1) return;
  launch(p, [p](comm& c) {
    std::vector<edge64> mine;
    if (c.rank() == 0) {
      for (std::uint64_t t = 1; t <= 400; ++t) mine.push_back({0, t});
    }
    graph_build_config cfg;
    // Directed star: the hub owns *all* 400 edges, so its adjacency list
    // must span every partition.  (An undirected star on p = 2 aligns the
    // hub's run exactly with the first chunk — no split, correctly.)
    cfg.undirected = false;
    auto g = build_in_memory_graph(c, mine, cfg);
    ASSERT_GE(g.split_table().size(), 1u);
    bool hub_found = false;
    for (const auto& e : g.split_table()) {
      if (e.global_id == 0) {
        hub_found = true;
        EXPECT_EQ(e.global_degree, 400u);
        EXPECT_GE(e.owners.size(), 2u);
      }
    }
    EXPECT_TRUE(hub_found);
    // Local edge counts stay balanced despite the hub.
    const std::uint64_t local = g.local_edge_count();
    const auto base = g.total_edges() / static_cast<std::uint64_t>(p);
    EXPECT_GE(local, base);
    EXPECT_LE(local, base + 1);
  });
}

INSTANTIATE_TEST_SUITE_P(
    WorldSizes, BuilderP,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 13),
                       ::testing::ValuesIn(kAllPartitioners)),
    [](const ::testing::TestParamInfo<BuilderP::ParamType>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_" +
             partitioner_name(std::get<1>(info.param));
    });
INSTANTIATE_TEST_SUITE_P(WorldSizes, EdgeListBuilderP,
                         ::testing::Values(1, 2, 3, 4, 8, 13));

TEST(Builder, AdjacencyRowsAreSorted) {
  const gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 23};
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), c.size());
    auto g = build_in_memory_graph(
        c, gen::rmat_slice(rc, range.begin, range.end), {});
    for (std::size_t s = 0; s < g.num_sources(); ++s) {
      std::vector<std::uint64_t> row;
      g.for_each_out_edge(s, [&](vertex_locator t) {
        row.push_back(t.bits());
        // has_local_out_edge agrees with a linear scan.
        EXPECT_TRUE(g.has_local_out_edge(s, t));
      });
      EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
      EXPECT_FALSE(g.has_local_out_edge(s, vertex_locator::invalid()));
    }
  });
}

}  // namespace
}  // namespace sfg::graph
