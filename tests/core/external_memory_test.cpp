/// External-memory integration: the same traversals over a graph whose
/// adjacency lives on a (simulated-NVRAM) block device behind the
/// user-space page cache, with a DRAM budget far below the graph size —
/// the paper's distributed external memory configuration (§VII-C).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "core/bfs.hpp"
#include "core/kcore.hpp"
#include "core/test_helpers.hpp"
#include "core/triangles.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"
#include "support/file_device.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using runtime::comm;
using runtime::launch;
using testing::gather_global;

constexpr std::size_t kPage = 512;  // 64 locators per page

TEST(ExternalMemory, BfsMatchesInMemory) {
  gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 81};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    // Tiny cache: 16 frames vs ~8K edges per rank -> constant eviction.
    storage::memory_device dev;
    storage::page_cache cache(dev, {kPage, 16});
    auto g = graph::build_external_graph(c, mine, {}, dev, cache);
    auto result = run_bfs(g, g.locate(edges.front().src), {});
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
    }
    EXPECT_GT(cache.stats().misses, 0u);
  });
}

TEST(ExternalMemory, BfsThroughSimulatedNvram) {
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 83};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(2, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 2);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    storage::memory_device raw;
    storage::sim_nvram_device nvram(
        raw, {std::chrono::microseconds(20), std::chrono::microseconds(40),
              8});
    storage::page_cache cache(nvram, {kPage, 32});
    auto g = graph::build_external_graph(c, mine, {}, nvram, cache);
    auto result = run_bfs(g, g.locate(edges.front().src), {});
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]);
    }
    EXPECT_GT(nvram.stats().reads, 0u);
  });
}

TEST(ExternalMemory, KcoreAndTrianglesMatchSerial) {
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 87};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected_tri = reference::serial_triangle_count(ref);
  const auto expected_core = reference::serial_kcore(ref, 4);
  std::uint64_t expected_core_size = 0;
  for (const auto a : expected_core) {
    if (a) ++expected_core_size;
  }

  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    storage::memory_device dev;
    storage::page_cache cache(dev, {kPage, 24});
    auto g = graph::build_external_graph(c, mine, {}, dev, cache);

    const auto tri = run_triangle_count(g, {});
    EXPECT_EQ(tri.total_triangles, expected_tri);

    const auto core = run_kcore(g, 4, {});
    EXPECT_EQ(core.core_size, expected_core_size);
  });
}

TEST(ExternalMemory, FileBackedGraphWorks) {
  gen::rmat_config rc{.scale = 6, .edge_factor = 8, .seed = 89};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(2, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 2);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    const auto path = (std::filesystem::temp_directory_path() /
                       ("sfg_em_rank" + std::to_string(c.rank()) + ".bin"))
                          .string();
    {
      test::file_device dev(path, true);
      storage::page_cache cache(dev, {kPage, 16});
      auto g = graph::build_external_graph(c, mine, {}, dev, cache);
      auto result = run_bfs(g, g.locate(edges.front().src), {});
      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, expected[gid]);
      }
    }
    std::filesystem::remove(path);
    c.barrier();
  });
}

TEST(ExternalMemory, BfsUnderCachePressureAndDelayedIo) {
  // Storage arm of the fault-injection layer: a cache under 10% of the
  // CSR's pages, plus injected eviction pressure and randomized delayed
  // I/O completions, must only slow EM-BFS down — never change levels.
  gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 85};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    storage::memory_device dev;
    storage::page_cache::config ccfg;
    ccfg.page_size = kPage;
    // After symmetrize+dedup this graph is ~38 CSR pages per rank, so a
    // 3-frame cache is under the 10%-of-CSR budget: nearly every row
    // access goes through the miss path.
    ccfg.num_frames = 3;
    ccfg.faults.seed = 4242;
    ccfg.faults.evict_prob = 0.05;
    ccfg.faults.io_delay_prob = 0.02;
    ccfg.faults.max_io_delay = std::chrono::microseconds(50);
    storage::page_cache cache(dev, ccfg);
    auto g = graph::build_external_graph(c, mine, {}, dev, cache);

    // The cache must actually be <10% of this rank's CSR pages.
    const std::size_t csr_pages =
        (g.total_edges() / 4 * sizeof(std::uint64_t) + kPage - 1) / kPage;
    EXPECT_LT(ccfg.num_frames * 10, csr_pages);

    auto result = run_bfs(g, g.locate(edges.front().src), {});
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
    }
    // Both fault hooks actually fired.
    EXPECT_GT(cache.stats().fault_evictions, 0u);
    EXPECT_GT(cache.stats().fault_io_delays, 0u);
  });
}

}  // namespace
}  // namespace sfg::core
