/// \file pipeline_demo.cpp
/// End-to-end production pipeline over the whole library:
///   1. generate an RMAT edge list and persist it (binary, striped write)
///   2. reload it distributed (each rank reads only its byte range)
///   3. build the edge-list partitioned graph and *checkpoint* it
///   4. reload the checkpoint in a fresh world (no rebuild) and run BFS
///   5. validate the BFS tree with the distributed Graph500-style checker
///   6. k-core decompose, extract the core's induced subgraph, rebuild
///      it as a new distributed graph, and count its triangles
///
/// Usage: pipeline_demo [scale] [num_ranks] [k]
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/bfs.hpp"
#include "core/bfs_validate.hpp"
#include "core/kcore.hpp"
#include "core/triangles.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/subgraph.hpp"
#include "io/blueprint_io.hpp"
#include "io/edge_list_io.hpp"
#include "runtime/runtime.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  const unsigned scale = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 12;
  const int num_ranks = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::uint32_t k =
      argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 8;

  const auto dir = std::filesystem::temp_directory_path();
  const std::string edges_path = (dir / "sfg_pipeline_edges.bin").string();
  const std::string ckpt_base = (dir / "sfg_pipeline_ckpt").string();

  sfg::gen::rmat_config rmat{.scale = scale, .edge_factor = 16, .seed = 31};
  std::cout << "pipeline: RMAT scale " << scale << " (" << rmat.num_edges()
            << " raw edges), " << num_ranks << " ranks, k = " << k << "\n";

  // ---- 1+2+3: generate -> persist -> reload -> build -> checkpoint ----
  sfg::runtime::launch(num_ranks, [&](sfg::runtime::comm& c) {
    const auto range =
        sfg::gen::slice_for_rank(rmat.num_edges(), c.rank(), c.size());
    const auto generated = sfg::gen::rmat_slice(rmat, range.begin, range.end);
    sfg::io::write_binary_edges_distributed(c, edges_path, generated);

    const auto loaded = sfg::io::read_binary_edges_distributed(c, edges_path);
    auto bp = sfg::graph::build_partition(c, loaded, {.num_ghosts = 128});
    sfg::io::save_blueprints(c, ckpt_base, bp);
    if (c.rank() == 0) {
      std::cout << "built + checkpointed: " << bp.total_vertices
                << " vertices, " << bp.total_edges << " directed edges\n";
    }
  });

  // ---- 4+5+6: fresh world, reload, BFS + validate, core subgraph ----
  int exit_code = 0;
  sfg::runtime::launch(num_ranks, [&](sfg::runtime::comm& c) {
    auto bp = sfg::io::load_blueprints(c, ckpt_base);
    sfg::graph::in_memory_edges store(std::move(bp.adj_bits));
    sfg::graph::distributed_graph<sfg::graph::in_memory_edges> g(
        c, std::move(bp), std::move(store));

    sfg::util::timer t;
    // locate() is collective: agree on rank 0's first vertex first.
    const auto source_gid =
        c.broadcast(c.rank() == 0 && g.num_slots() > 0 ? g.global_id_of(0)
                                                       : std::uint64_t{0},
                    0);
    const auto src = g.locate(source_gid);
    auto bfs = sfg::core::run_bfs(g, src, {});
    const double bfs_s = t.elapsed_s();
    const auto validation = sfg::core::validate_bfs(g, src, bfs.state, {});
    if (c.rank() == 0) {
      std::cout << "BFS from checkpointed graph: reached "
                << validation.reached << " in " << bfs_s << " s; validation "
                << (validation.valid ? "PASSED" : "FAILED") << " ("
                << validation.tree_edges_found << "/"
                << validation.tree_edges_expected << " tree edges)\n";
    }
    if (!validation.valid) exit_code = 1;

    auto core = sfg::core::run_kcore(g, k, {});
    auto core_edges = sfg::graph::extract_induced_edges(
        g, [&](std::size_t s) { return core.state.local(s).alive; });
    sfg::graph::graph_build_config sub_cfg;
    sub_cfg.undirected = false;  // extraction emitted both directions
    auto core_graph = sfg::graph::build_in_memory_graph(c, core_edges, sub_cfg);
    const auto tri = sfg::core::run_triangle_count(core_graph, {});
    if (c.rank() == 0) {
      std::cout << k << "-core: " << core.core_size << " vertices, "
                << core_graph.total_edges() << " directed edges, "
                << tri.total_triangles << " triangles in the core\n";
    }
  });

  std::filesystem::remove(edges_path);
  for (int r = 0; r < num_ranks; ++r) {
    std::filesystem::remove(sfg::io::blueprint_path(ckpt_base, r));
  }
  std::cout << (exit_code == 0 ? "PIPELINE OK" : "PIPELINE FAILED") << "\n";
  return exit_code;
}
