#include "io/blueprint_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "core/bfs.hpp"
#include "core/test_helpers.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"

namespace sfg::io {
namespace {

using gen::edge64;
using runtime::comm;
using runtime::launch;

std::string tmp_base(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_checkpoints(const std::string& base, int p) {
  for (int r = 0; r < p; ++r) {
    std::filesystem::remove(blueprint_path(base, r));
  }
}

bool blueprints_equal(const graph::partition_blueprint& a,
                      const graph::partition_blueprint& b) {
  if (a.rank != b.rank || a.p != b.p ||
      a.total_vertices != b.total_vertices ||
      a.total_edges != b.total_edges || a.num_sources != b.num_sources ||
      a.num_sinks != b.num_sinks || a.csr_offsets != b.csr_offsets ||
      a.adj_bits != b.adj_bits || a.adj_weight != b.adj_weight ||
      a.slot_global_id != b.slot_global_id ||
      a.slot_locator_bits != b.slot_locator_bits ||
      a.slot_degree != b.slot_degree ||
      a.ghost_locator_bits != b.ghost_locator_bits ||
      a.directory != b.directory ||
      a.split_table.size() != b.split_table.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.split_table.size(); ++i) {
    const auto& x = a.split_table[i];
    const auto& y = b.split_table[i];
    if (x.global_id != y.global_id || x.locator_bits != y.locator_bits ||
        x.global_degree != y.global_degree || x.owners != y.owners) {
      return false;
    }
  }
  return true;
}

TEST(BlueprintIo, RoundTripPreservesEverything) {
  const auto base = tmp_base("sfg_bp_rt");
  gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 21};
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(rc.num_edges(), c.rank(), 4);
    graph::graph_build_config gcfg;
    gcfg.num_ghosts = 16;
    gcfg.make_weights = true;
    auto bp = graph::build_partition(
        c, gen::rmat_slice(rc, range.begin, range.end), gcfg);
    save_blueprints(c, base, bp);
    const auto loaded = load_blueprints(c, base);
    EXPECT_TRUE(blueprints_equal(bp, loaded));
    c.barrier();
  });
  remove_checkpoints(base, 4);
}

TEST(BlueprintIo, GraphFromCheckpointTraversesIdentically) {
  const auto base = tmp_base("sfg_bp_bfs");
  gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 22};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  // Phase 1: build and checkpoint.
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    const auto bp = graph::build_partition(c, mine, {});
    save_blueprints(c, base, bp);
    c.barrier();
  });

  // Phase 2: a fresh world reloads and traverses — no rebuild.
  launch(4, [&](comm& c) {
    auto bp = load_blueprints(c, base);
    graph::in_memory_edges store(bp.adj_bits);
    graph::distributed_graph<graph::in_memory_edges> g(c, std::move(bp),
                                                       std::move(store));
    auto result = core::run_bfs(g, g.locate(edges.front().src), {});
    const auto levels = core::testing::gather_global(
        c, g, [&](std::size_t s) { return result.state.local(s).level; });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]);
    }
  });
  remove_checkpoints(base, 4);
}

TEST(BlueprintIo, WorldSizeMismatchRejected) {
  const auto base = tmp_base("sfg_bp_mismatch");
  launch(2, [&](comm& c) {
    auto bp = graph::build_partition(c, {{0, 1}, {1, 2}}, {});
    save_blueprints(c, base, bp);
    c.barrier();
  });
  EXPECT_THROW(
      launch(3, [&](comm& c) { (void)load_blueprints(c, base); }),
      std::runtime_error);
  remove_checkpoints(base, 2);
}

TEST(BlueprintIo, CorruptFileRejected) {
  const auto path = tmp_base("sfg_bp_corrupt") + ".rank0.sfg";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a blueprint";
  }
  EXPECT_THROW(load_blueprint(path), std::runtime_error);
  std::filesystem::remove(path);
}

using directory_entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Save a minimal blueprint for rank 0 of 2 with the given ghost list and
/// directory shard, then load it back.
graph::partition_blueprint reload_minimal(const std::string& name,
                                          std::vector<std::uint64_t> ghosts,
                                          directory_entries directory = {}) {
  graph::partition_blueprint bp;
  bp.rank = 0;
  bp.p = 2;
  bp.ghost_locator_bits = std::move(ghosts);
  bp.directory = std::move(directory);
  const auto path = tmp_base(name) + ".rank0.sfg";
  save_blueprint(path, bp);
  struct remove_on_exit {
    std::string path;
    ~remove_on_exit() { std::filesystem::remove(path); }
  } const cleanup{path};
  return load_blueprint(path);
}

/// The load must fail, and for the stated reason.
void expect_rejected(const std::string& name, std::vector<std::uint64_t> ghosts,
                     directory_entries directory, const std::string& reason) {
  try {
    (void)reload_minimal(name, std::move(ghosts), std::move(directory));
    ADD_FAILURE() << "blueprint accepted; expected: " << reason;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
  }
}

constexpr std::uint64_t kRemoteGhost = graph::vertex_locator(1, 7).bits();

TEST(BlueprintIo, InvalidGhostLocatorRejected) {
  EXPECT_NO_THROW(reload_minimal("sfg_bp_ghost_ok", {kRemoteGhost}));
  expect_rejected("sfg_bp_ghost_invalid",
                  {kRemoteGhost, graph::vertex_locator::invalid().bits()}, {},
                  "invalid ghost locator");
}

TEST(BlueprintIo, DuplicateGhostLocatorRejected) {
  expect_rejected(
      "sfg_bp_ghost_dup",
      {kRemoteGhost, graph::vertex_locator(1, 3).bits(), kRemoteGhost}, {},
      "duplicate ghost locator");
}

TEST(BlueprintIo, GhostOwnerOutOfRangeRejected) {
  // Owned by the loading rank: a ghost must stand in for a remote vertex.
  expect_rejected("sfg_bp_ghost_own", {graph::vertex_locator(0, 7).bits()},
                  {}, "ghost owner is this rank or out of range");
  // Owner >= p: no rank masters it.
  expect_rejected("sfg_bp_ghost_range", {graph::vertex_locator(2, 7).bits()},
                  {}, "ghost owner is this rank or out of range");
}

// distributed_graph answers directory probes by binary search over the
// shard, so its keys must be strictly ascending: two swapped entries or a
// repeated key would make a present gid unfindable or ambiguous.
TEST(BlueprintIo, UnsortedDirectoryRejected) {
  const std::uint64_t a = graph::vertex_locator(0, 1).bits();
  const std::uint64_t b = graph::vertex_locator(1, 2).bits();
  const std::uint64_t d = graph::vertex_locator(0, 3).bits();
  const auto loaded =
      reload_minimal("sfg_bp_dir_ok", {}, {{4, a}, {10, b}, {12, d}});
  EXPECT_EQ(loaded.directory, (directory_entries{{4, a}, {10, b}, {12, d}}));
  expect_rejected("sfg_bp_dir_swapped", {}, {{4, a}, {12, d}, {10, b}},
                  "directory keys not strictly ascending");
  expect_rejected("sfg_bp_dir_repeated", {}, {{4, a}, {10, b}, {10, d}},
                  "directory keys not strictly ascending");
}

TEST(BlueprintIo, MissingFileRejected) {
  EXPECT_THROW(load_blueprint("/nonexistent/bp.rank0.sfg"),
               std::runtime_error);
}

}  // namespace
}  // namespace sfg::io
