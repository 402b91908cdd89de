/// \file partition_metrics.hpp
/// Placement-quality metrics for the partitioning schemes the paper
/// compares (Figure 2) and the pluggable partitioners layered on top.
///
/// The closed-form edges-per-partition functions below are *scheme
/// formulas*: the 1D/2D ones encode those schemes' contiguous vertex
/// blocks, and the edge_list one encodes the exact floor/ceil split.
/// They are correct ONLY for their own scheme.  Everything that must
/// hold for an arbitrary partitioner (DBH/HDRF/SNE) is computed from an
/// explicit edge→rank assignment (`edges_per_partition_assigned`,
/// `replication_from_assignment`) or from the built graph's locators
/// (`measure_replication`) — never from a vertex-id block formula:
/// masters of a general partitioner are scattered across ranks, so
/// "vertex block" arithmetic silently miscounts them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gen/edge.hpp"
#include "graph/vertex_locator.hpp"
#include "runtime/comm.hpp"
#include "util/bits.hpp"

namespace sfg::graph {

/// 1D: vertex v's entire adjacency list goes to partition
/// floor(v / ceil(V/p)).  Returns edges per partition.
std::vector<std::uint64_t> edges_per_partition_1d(
    std::span<const gen::edge64> edges, std::uint64_t num_vertices, int p);

/// 2D: the adjacency matrix is blocked on a near-square R x C processor
/// grid; edge (u, v) goes to block (u / ceil(V/R), v / ceil(V/C)).
std::vector<std::uint64_t> edges_per_partition_2d(
    std::span<const gen::edge64> edges, std::uint64_t num_vertices, int p);

/// Edge-list: the sorted edge list is split evenly — floor/ceil(|E|/p)
/// per partition by construction.
std::vector<std::uint64_t> edges_per_partition_edge_list(
    std::uint64_t num_edges, int p);

/// General: edges per partition from an explicit edge→rank assignment
/// (edge_partitioner::place output).  Works for every scheme.
std::vector<std::uint64_t> edges_per_partition_assigned(
    std::span<const int> assignment, int p);

/// Replication-factor summary of one placement.
///
/// Two factors are reported because the runtime and the literature count
/// different things:
///   * chain_rf — mean owner-chain length over *sources* (vertices with
///     out-edges): Σ_v |owners(v)| / #sources.  This is what the visitor
///     queue pays — every chain hop is one extra mailbox forward.
///   * endpoint_rf — classic edge-partitioning replication factor over
///     all vertices: Σ_v |{ranks holding an edge incident to v}| / |V|.
struct replication_stats {
  double chain_rf = 1.0;
  double endpoint_rf = 1.0;
  std::uint64_t sources = 0;        ///< global vertices with out-edges
  std::uint64_t vertices = 0;       ///< global distinct endpoints
  std::uint64_t split_vertices = 0; ///< sources with |owners| > 1
  std::vector<std::uint64_t> edges_per_rank;
  std::uint64_t bottleneck_edges = 0;  ///< max over ranks
  /// max / mean edges per rank (1.0 = perfectly balanced).
  double imbalance = 1.0;
};

/// Recompute replication_stats from scratch — a cleaned edge stream plus
/// its assignment, no graph involved.  The property tests cross-check
/// this against measure_replication() on the built graph.
replication_stats replication_from_assignment(
    std::span<const gen::edge64> stream, std::span<const int> assignment,
    int p);

/// Collective: recompute replication_stats from a built graph's own
/// locators and adjacency.  Counts replicas by *what each rank actually
/// holds* — never by assuming masters form contiguous vertex blocks
/// (true only for the 1D baseline) or that chains are consecutive (true
/// only for edge_list).
template <typename G>
replication_stats measure_replication(const G& g) {
  runtime::comm& c = g.comm();
  // Source replicas on this rank: adjacency-holding slots.  Masters among
  // them are identified by locator, wherever that locator points.
  std::uint64_t local_source_slots = 0;
  std::uint64_t local_mastered_sources = 0;
  std::uint64_t local_mastered_splits = 0;
  std::unordered_set<std::uint64_t> present;  // locators incident to my edges
  for (std::size_t s = 0; s < g.num_sources(); ++s) {
    if (g.local_out_degree(s) == 0) continue;
    ++local_source_slots;
    const auto loc = g.locator_of(s);
    present.insert(loc.bits());
    if (g.is_master(s)) {
      ++local_mastered_sources;
      if (g.max_owner(loc) != loc.owner()) ++local_mastered_splits;
    }
    g.for_each_out_edge(s, [&](vertex_locator t) { present.insert(t.bits()); });
  }
  const std::uint64_t source_replicas =
      c.all_reduce(local_source_slots, std::plus<>());
  const std::uint64_t sources =
      c.all_reduce(local_mastered_sources, std::plus<>());
  const std::uint64_t endpoint_replicas = c.all_reduce(
      static_cast<std::uint64_t>(present.size()), std::plus<>());
  // Distinct endpoints = total_vertices: builders only materialize
  // vertices incident to at least one edge.
  const std::uint64_t vertices = g.total_vertices();

  replication_stats r;
  r.sources = sources;
  r.vertices = vertices;
  r.split_vertices = c.all_reduce(local_mastered_splits, std::plus<>());
  r.chain_rf = sources == 0 ? 1.0
                            : static_cast<double>(source_replicas) /
                                  static_cast<double>(sources);
  r.endpoint_rf = vertices == 0 ? 1.0
                                : static_cast<double>(endpoint_replicas) /
                                      static_cast<double>(vertices);
  r.edges_per_rank = c.all_gather(g.local_edge_count());
  for (const std::uint64_t e : r.edges_per_rank) {
    r.bottleneck_edges = std::max(r.bottleneck_edges, e);
  }
  const std::uint64_t total = g.total_edges();
  r.imbalance = total == 0 ? 1.0
                           : static_cast<double>(r.bottleneck_edges) *
                                 static_cast<double>(g.size()) /
                                 static_cast<double>(total);
  return r;
}

}  // namespace sfg::graph
