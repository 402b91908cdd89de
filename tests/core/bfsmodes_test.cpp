/// \file bfsmodes_test.cpp
/// The cross-mode BFS equivalence matrix (ctest -L bfsmodes): every
/// traversal mode (async / topdown / bottomup / hybrid) on every
/// partitioner (edge_list / DBH / HDRF / SNE) on every graph family
/// ({RMAT, ER, path, star-hub}) at {1, 4} ranks, against the serial
/// reference.
///
/// Levels must match the serial BFS exactly in every cell.  Parents are
/// mode-dependent (any BFS tree is valid — which claim wins a level race
/// differs between the async queue and the level-synchronous scans), so
/// the parent check is the Graph500-style structural one: validate_bfs
/// must accept every mode's tree on the same graph.
///
/// This suite is also the acceptance gate for the α/β heuristic: on the
/// low-diameter families (rmat, er, star_hub) the hybrid traversal must
/// actually take bottom-up levels (direction_switch_level >= 0), and on
/// the path graph — frontier of one vertex per level — it must never
/// leave top-down.
///
/// The level-synchronous modes also run over external storage
/// (BfsModesExternal): the same families with the adjacency behind a
/// 16-frame page cache, checked against the serial levels and, level by
/// level, against the claims of the in-memory run on the same partition.
/// BfsModesFaults checks that the level-synchronous BFS's injected
/// stalls reach the flight recorder as the visitor queue's do.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/bfs_hybrid.hpp"
#include "core/bfs_validate.hpp"
#include "core/test_helpers.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partitioner.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"
#include "util/rng.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using graph::build_in_memory_graph;
using graph::graph_build_config;
using graph::partitioner_kind;
using runtime::comm;
using runtime::launch;
using testing::gather_global;

enum class family { rmat, er, path, star_hub };

const char* family_name(family f) {
  switch (f) {
    case family::rmat:
      return "rmat";
    case family::er:
      return "er";
    case family::path:
      return "path";
    case family::star_hub:
      return "star_hub";
  }
  return "?";
}

std::vector<edge64> make_family(family f) {
  switch (f) {
    case family::rmat: {
      gen::rmat_config rc{.scale = 6, .edge_factor = 8, .seed = 1201};
      return gen::rmat_slice(rc, 0, rc.num_edges());
    }
    case family::er: {
      util::xoshiro256 rng(77);
      std::vector<edge64> edges;
      for (int i = 0; i < 1200; ++i) {
        edges.push_back({rng.uniform_below(200), rng.uniform_below(200)});
      }
      return edges;
    }
    case family::path: {
      std::vector<edge64> edges;
      for (std::uint64_t v = 0; v < 300; ++v) edges.push_back({v, v + 1});
      return edges;
    }
    case family::star_hub: {
      std::vector<edge64> edges;
      for (std::uint64_t t = 1; t <= 400; ++t) edges.push_back({0, t});
      for (std::uint64_t t = 1; t < 400; ++t) edges.push_back({t, t + 1});
      return edges;
    }
  }
  return {};
}

class BfsModes
    : public ::testing::TestWithParam<std::tuple<partitioner_kind, family, int>> {
};

TEST_P(BfsModes, AllModesMatchSerial) {
  const auto [kind, fam, p] = GetParam();
  const auto edges = make_family(fam);
  const std::uint64_t source_gid = edges.front().src;

  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp = reference::serial_bfs(ref, source_gid);

  launch(p, [&, kind = kind, fam = fam, p = p](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), p);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    graph_build_config gcfg;
    gcfg.partitioner.kind = kind;
    auto g = build_in_memory_graph(c, mine, gcfg);
    const auto source = g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    for (const bfs_mode mode : kAllBfsModes) {
      SCOPED_TRACE(std::string("mode=") + bfs_mode_name(mode));
      hybrid_bfs_config cfg;
      cfg.mode = mode;
      auto result = run_bfs_mode(g, source, cfg);

      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, exp[gid]) << "vertex " << gid;
      }

      // The tree itself (parents are mode-dependent but must be valid).
      const auto v = validate_bfs(g, source, result.state, {});
      EXPECT_TRUE(v.valid);
      EXPECT_EQ(v.level_violations, 0u);
      EXPECT_EQ(v.structural_violations, 0u);
      EXPECT_EQ(v.tree_edges_found, v.tree_edges_expected);

      // Mode-shape assertions on the level trace (identical on all ranks).
      if (mode == bfs_mode::async) {
        EXPECT_TRUE(result.levels.empty());
        EXPECT_EQ(result.direction_switch_level, -1);
      } else {
        ASSERT_FALSE(result.levels.empty());
        std::uint64_t reached = 0;
        for (const auto& [gid, level] : levels) {
          if (level != std::numeric_limits<std::uint64_t>::max()) ++reached;
        }
        std::uint64_t frontier_sum = 0;
        for (const auto& ls : result.levels) {
          frontier_sum += ls.frontier_vertices;
        }
        EXPECT_EQ(frontier_sum, reached);
      }
      if (mode == bfs_mode::topdown) {
        for (const auto& ls : result.levels) EXPECT_FALSE(ls.bottom_up);
        EXPECT_EQ(result.direction_switch_level, -1);
      }
      if (mode == bfs_mode::bottomup) {
        for (const auto& ls : result.levels) EXPECT_TRUE(ls.bottom_up);
        EXPECT_EQ(result.direction_switch_level, 0);
      }
      if (mode == bfs_mode::hybrid) {
        if (fam == family::path) {
          // One-vertex frontiers: the α threshold is only crossed when
          // the unvisited mass has collapsed, i.e. deep in the tail of
          // the traversal (Beamer's heuristic legitimately takes the
          // last few levels bottom-up once m_u < α·m_f).  An early
          // switch here would mean the heuristic is reading the wrong
          // masses.
          if (result.direction_switch_level >= 0) {
            EXPECT_GT(result.direction_switch_level,
                      static_cast<std::int64_t>(result.levels.size() * 3 / 4));
          }
        } else {
          // Low-diameter scale-free / dense families must actually take
          // bottom-up levels, or the heuristic is dead code.
          EXPECT_GE(result.direction_switch_level, 0)
              << "hybrid never switched on " << family_name(fam);
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BfsModes,
    ::testing::Combine(::testing::ValuesIn(graph::kAllPartitioners),
                       ::testing::Values(family::rmat, family::er,
                                         family::path, family::star_hub),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<BfsModes::ParamType>& info) {
      return std::string(graph::partitioner_name(std::get<0>(info.param))) +
             "_" + family_name(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param));
    });

// The level-synchronous driver over external storage: the adjacency
// behind a page cache of 16 512-byte frames on a memory_device, the same
// blueprint also run in memory.  Levels match the serial BFS, the tree
// validates, and every level makes exactly the claims the in-memory run
// makes: storage changes where edges come from, never what the probe does.
// Every claim is counted once as sent and once as delivered, including
// the ones a master applies in place.
void check_external_store(family fam, int p,
                          storage::page_cache::fault_hooks faults) {
  const auto edges = make_family(fam);
  const std::uint64_t source_gid = edges.front().src;
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp = reference::serial_bfs(ref, source_gid);

  launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), p);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    graph::partition_blueprint bp = graph::build_partition(c, mine, {});
    graph::distributed_graph<graph::in_memory_edges> mem_g(
        c, bp, graph::in_memory_edges(bp.adj_bits));
    storage::memory_device dev;
    storage::write_array<std::uint64_t>(dev, 0, bp.adj_bits);
    storage::page_cache cache(dev, {512, 16, faults});
    graph::external_edges store(cache, 0, bp.adj_bits.size());
    graph::distributed_graph<graph::external_edges> em_g(c, std::move(bp),
                                                         std::move(store));
    const auto source = em_g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    for (const bfs_mode mode :
         {bfs_mode::topdown, bfs_mode::bottomup, bfs_mode::hybrid}) {
      SCOPED_TRACE(std::string("mode=") + bfs_mode_name(mode));
      hybrid_bfs_config cfg;
      cfg.mode = mode;
      const auto gets_before = cache.stats().hits + cache.stats().misses;
      auto em = run_bfs_mode(em_g, source, cfg);
      const auto gets = cache.stats().hits + cache.stats().misses - gets_before;
      auto in_mem = run_bfs_mode(mem_g, source, cfg);

      const auto levels = gather_global(c, em_g, [&](std::size_t s) {
        return em.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, exp[gid]) << "vertex " << gid;
      }
      const auto v = validate_bfs(em_g, source, em.state, {});
      EXPECT_TRUE(v.valid);
      EXPECT_EQ(v.level_violations, 0u);
      EXPECT_EQ(v.structural_violations, 0u);

      ASSERT_EQ(em.levels.size(), in_mem.levels.size());
      for (std::size_t l = 0; l < em.levels.size(); ++l) {
        EXPECT_EQ(em.levels[l].bottom_up, in_mem.levels[l].bottom_up) << l;
        EXPECT_EQ(em.levels[l].claims_sent, in_mem.levels[l].claims_sent)
            << "level " << l;
      }
      const auto sum = [&c](std::uint64_t x) {
        return c.all_reduce(x, std::plus<>());
      };
      EXPECT_EQ(sum(em.stats.mailbox.records_sent),
                sum(em.stats.mailbox.records_delivered));
      // The traversal read its edges through the cache.
      EXPECT_GT(sum(gets), 0u);
    }
    if (faults.evict_prob > 0) {
      EXPECT_GT(c.all_reduce(cache.stats().fault_evictions, std::plus<>()),
                0u);
    }
  });
}

class BfsModesExternal
    : public ::testing::TestWithParam<std::tuple<family, int>> {};

TEST_P(BfsModesExternal, LevelSyncMatchesSerialAndInMemoryClaims) {
  const auto [fam, p] = GetParam();
  check_external_store(fam, p, {});
}

INSTANTIATE_TEST_SUITE_P(
    EdgeList, BfsModesExternal,
    ::testing::Combine(::testing::Values(family::rmat, family::er,
                                         family::path, family::star_hub),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<BfsModesExternal::ParamType>& info) {
      return std::string(family_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

// Injected eviction pressure forces the miss path mid-scan: the page the
// scan's row walker holds cannot be dropped, but every page it has
// released may be gone when a later row or the next level needs it.
TEST(BfsModesExternal, SurvivesInjectedEvictions) {
  storage::page_cache::fault_hooks faults;
  faults.seed = 4242;
  faults.evict_prob = 0.3;
  check_external_store(family::rmat, 4, faults);
}

// Injected stalls go through the traversal observer, as in the visitor
// queue: with a stall drawn at every level start and every quiescence poll,
// each rank records fault_stall events before it sleeps, and the levels
// are still the serial BFS's.
TEST(BfsModesFaults, HybridStallsLandInTheFlightRecorder) {
  constexpr int kRanks = 4;
  const auto edges = make_family(family::rmat);
  const std::uint64_t source_gid = edges.front().src;
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto exp = reference::serial_bfs(ref, source_gid);

  const bool flight_was_on = obs::flight_on();
  obs::set_flight_enabled(true);
  obs::flight_clear();
  launch(kRanks, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), kRanks);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    const auto source = g.locate(source_gid);
    ASSERT_TRUE(source.valid());

    hybrid_bfs_config cfg;
    cfg.queue.faults.seed = 31;
    cfg.queue.faults.stall_prob = 1.0;
    cfg.queue.faults.max_stall = std::chrono::microseconds(5);
    auto result = run_bfs_mode(g, source, cfg);
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, exp[gid]) << "vertex " << gid;
    }
  });

  const obs::json doc = obs::flight_to_json("hybrid-stall");
  obs::set_flight_enabled(flight_was_on);
  const obs::json* ranks = doc.find("ranks");
  ASSERT_NE(ranks, nullptr);
  std::vector<int> stalls(kRanks, 0);
  for (std::size_t i = 0; i < ranks->size(); ++i) {
    const obs::json& r = ranks->at(i);
    const std::int64_t rank = r.find("rank")->as_i64();
    if (rank < 0 || rank >= kRanks) continue;
    const obs::json& events = *r.find("events");
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (events.at(e).find("kind")->as_string() == "fault_stall") {
        ++stalls[static_cast<std::size_t>(rank)];
      }
    }
  }
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_GE(stalls[static_cast<std::size_t>(r)], 1) << "rank " << r;
  }
}

}  // namespace
}  // namespace sfg::core
