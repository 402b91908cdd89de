#include "core/bfs.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "core/test_helpers.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partition_1d.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using graph::build_in_memory_graph;
using graph::graph_build_config;
using graph::vertex_locator;
using runtime::comm;
using runtime::launch;
using testing::gather_global;

constexpr auto kInf = std::numeric_limits<std::uint64_t>::max();

/// Full pipeline check: distributed BFS levels equal serial BFS levels,
/// for every vertex, including unreached ones.
void check_bfs_matches_serial(const std::vector<edge64>& all_edges,
                              std::uint64_t source_gid, int p,
                              const queue_config& qcfg,
                              const graph_build_config& gcfg = {}) {
  const auto ref = reference::serial_graph::from_edges(
      all_edges, {gcfg.undirected, gcfg.remove_self_loops,
                  gcfg.remove_duplicates});
  const auto expected = reference::serial_bfs(ref, source_gid);

  launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(all_edges.size(), c.rank(), p);
    std::vector<edge64> mine(
        all_edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        all_edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, gcfg);
    const auto source = g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    auto result = run_bfs(g, source, qcfg);
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });

    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
    }
    // Parent validity: every reached non-source vertex has a valid parent
    // locator whose level (gathered by locator) is exactly one less.
    const auto levels_by_locator = gather_global(
        c, g, [&](std::size_t s) { return result.state.local(s).level; });
    (void)levels_by_locator;
    std::map<std::uint64_t, std::uint64_t> level_of_locator;
    {
      struct kv {
        std::uint64_t loc;
        std::uint64_t level;
      };
      std::vector<kv> mine2;
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        if (g.is_master(s)) {
          mine2.push_back(
              {g.locator_of(s).bits(), result.state.local(s).level});
        }
      }
      for (const auto& e :
           c.all_gatherv(std::span<const kv>(mine2), nullptr)) {
        level_of_locator.emplace(e.loc, e.level);
      }
    }
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (!g.is_master(s)) continue;
      const auto& st = result.state.local(s);
      if (!st.reached() || st.level == 0) continue;
      ASSERT_TRUE(st.parent().valid());
      EXPECT_EQ(level_of_locator.at(st.parent_bits), st.level - 1)
          << "vertex " << g.global_id_of(s);
    }
  });
}

class BfsMatrix : public ::testing::TestWithParam<
                      std::tuple<int, mailbox::topology, bool>> {};

TEST_P(BfsMatrix, RmatMatchesSerial) {
  const auto [p, topo, ghosts] = GetParam();
  gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 101};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  queue_config qcfg;
  qcfg.topo = topo;
  graph_build_config gcfg;
  gcfg.num_ghosts = ghosts ? 64 : 0;
  check_bfs_matches_serial(edges, edges.front().src, p, qcfg, gcfg);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BfsMatrix,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(mailbox::topology::direct,
                                         mailbox::topology::grid2d,
                                         mailbox::topology::torus3d),
                       ::testing::Values(false, true)));

class BfsSources : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BfsSources, SmallWorldMatchesSerial) {
  gen::sw_config sc{.num_vertices = 1 << 9, .degree = 8, .rewire = 0.1,
                    .seed = 7};
  const auto edges = gen::sw_slice(sc, 0, sc.num_edges());
  const std::uint64_t source = GetParam() % sc.num_vertices;
  check_bfs_matches_serial(edges, edges[source].src, 4, {});
}

INSTANTIATE_TEST_SUITE_P(Sources, BfsSources,
                         ::testing::Values(0, 13, 255, 400));

TEST(Bfs, PreferentialAttachmentMatchesSerial) {
  gen::pa_config pc{.num_vertices = 1 << 9, .edges_per_vertex = 6,
                    .rewire = 0.1, .seed = 3};
  const auto edges = gen::pa_slice(pc, 0, pc.num_edges());
  check_bfs_matches_serial(edges, edges.front().src, 4, {});
}

TEST(Bfs, DirectedGraphWithSinks) {
  // 0 -> everything; sinks must end at level 1.
  std::vector<edge64> edges;
  for (std::uint64_t t = 1; t <= 30; ++t) edges.push_back({0, t});
  graph_build_config gcfg;
  gcfg.undirected = false;
  check_bfs_matches_serial(edges, 0, 4, {}, gcfg);
}

TEST(Bfs, DisconnectedComponentStaysInf) {
  // Two cliques, no path between them.
  std::vector<edge64> edges;
  for (std::uint64_t a = 0; a < 5; ++a) {
    for (std::uint64_t b = a + 1; b < 5; ++b) edges.push_back({a, b});
  }
  for (std::uint64_t a = 10; a < 15; ++a) {
    for (std::uint64_t b = a + 1; b < 15; ++b) edges.push_back({a, b});
  }
  launch(3, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 3);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    auto result = run_bfs(g, g.locate(0), {});
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    EXPECT_EQ(levels.at(0), 0u);
    EXPECT_EQ(levels.at(4), 1u);
    EXPECT_EQ(levels.at(10), kInf);
    EXPECT_EQ(levels.at(14), kInf);
  });
}

TEST(Bfs, ReplicaCopiesAgreeWithMaster) {
  // Hub graph: vertex 0's adjacency spans partitions; at quiescence every
  // replica's copy of the BFS state must match the master's.
  std::vector<edge64> edges;
  for (std::uint64_t t = 1; t <= 300; ++t) edges.push_back({0, t});
  for (std::uint64_t t = 1; t < 300; ++t) edges.push_back({t, t + 1});
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    auto result = run_bfs(g, g.locate(5), {});
    // For each split vertex this rank holds, gather (gid, level) and
    // verify all copies agree.
    struct copy {
      std::uint64_t gid;
      std::uint64_t level;
    };
    std::vector<copy> mine_copies;
    for (const auto& e : g.split_table()) {
      const auto loc = graph::vertex_locator::from_bits(e.locator_bits);
      if (const auto slot = g.slot_of(loc)) {
        mine_copies.push_back({e.global_id, result.state.local(*slot).level});
      }
    }
    const auto all = c.all_gatherv(std::span<const copy>(mine_copies), nullptr);
    std::map<std::uint64_t, std::uint64_t> first;
    for (const auto& cp : all) {
      const auto [it, inserted] = first.emplace(cp.gid, cp.level);
      EXPECT_EQ(it->second, cp.level)
          << "replica disagreement for vertex " << cp.gid;
    }
    ASSERT_FALSE(g.split_table().empty());
  });
}

TEST(Bfs, GhostsFilterHubTraffic) {
  // Hub-heavy graph with ghosts enabled: the ghost filter must actually
  // suppress pushes, and the result must still be exact.
  gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 5};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges, {});
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    graph_build_config gcfg;
    gcfg.num_ghosts = 128;
    auto g = build_in_memory_graph(c, mine, gcfg);
    auto result = run_bfs(g, g.locate(edges.front().src), {});
    const auto filtered = c.all_reduce(result.stats.ghost_filtered,
                                       std::plus<>());
    EXPECT_GT(filtered, 0u);
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]);
    }
  });
}

TEST(Bfs, WorksOn1DPartitionedGraph) {
  // The same visitor machinery drives the 1D baseline graph.
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 21};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges, {});
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    graph::graph_1d g(c, mine, rc.num_vertices());
    auto result = run_bfs(g, g.locate(edges.front().src), {});
    // Compare levels for vertices that exist in the reference.
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      const auto gid = g.global_id_of(s);
      const auto lvl = result.state.local(s).level;
      if (gid < expected.size()) {
        EXPECT_EQ(lvl, expected[gid]) << "vertex " << gid;
      } else {
        EXPECT_EQ(lvl, kInf);
      }
    }
  });
}

TEST(Bfs, StatsAreConsistent) {
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 31};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    auto result = run_bfs(g, g.locate(edges.front().src), {});
    const auto& st = result.stats;
    // Global: every record sent is delivered exactly once.
    const auto sent = c.all_reduce(st.visitors_sent, std::plus<>());
    const auto delivered = c.all_reduce(st.visitors_delivered, std::plus<>());
    EXPECT_EQ(sent, delivered);
    // Executed visitors all came through the local queue, which only
    // admits pre_visit-approved deliveries.
    EXPECT_LE(st.visitors_executed, st.visitors_delivered);
  });
}

}  // namespace
}  // namespace sfg::core
