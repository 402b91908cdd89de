/// \file generators.hpp
/// Synthetic graph generators used throughout the paper's evaluation
/// (§VII-A):
///   * RMAT   — Graph500 v1.2 parameters; scale-free, the main workload.
///   * PA     — Barabási–Albert preferential attachment, with an optional
///              random-rewire step interpolating toward a random graph
///              (used in Figure 11 to control maximum vertex degree).
///   * SW     — Watts–Strogatz small world: uniform degree, rewire
///              probability controls the diameter (used in Figures 7/10).
///
/// All generators are *sliceable and deterministic*: edge i is a pure
/// function of (config, i), so p ranks generate disjoint slices of the
/// same global edge list with no communication, and results do not depend
/// on the number of ranks.  After generation, vertex labels are passed
/// through a random_permutation exactly as the paper prescribes.  A slice
/// [begin, end) outside [0, num_edges()) — or with begin > end — throws
/// std::out_of_range.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/edge.hpp"
#include "gen/permutation.hpp"

namespace sfg::gen {

// ---------------------------------------------------------------------------
// RMAT (Graph500)
// ---------------------------------------------------------------------------

struct rmat_config {
  unsigned scale = 16;             ///< 2^scale vertices
  std::uint64_t edge_factor = 16;  ///< edges = edge_factor * num_vertices
  /// Graph500 v1.2 quadrant probabilities.
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  std::uint64_t seed = 1;
  bool permute_labels = true;

  [[nodiscard]] std::uint64_t num_vertices() const {
    return std::uint64_t{1} << scale;
  }
  [[nodiscard]] std::uint64_t num_edges() const {
    return edge_factor * num_vertices();
  }
};

/// Generate edges [begin, end) of the RMAT edge list.
std::vector<edge64> rmat_slice(const rmat_config& cfg, std::uint64_t begin,
                               std::uint64_t end);

// ---------------------------------------------------------------------------
// Preferential attachment (Barabási–Albert)
// ---------------------------------------------------------------------------

struct pa_config {
  std::uint64_t num_vertices = 1 << 16;
  std::uint64_t edges_per_vertex = 8;  ///< d: each new vertex attaches d times
  /// With probability rewire, an edge's target is replaced by a uniformly
  /// random vertex; rewire = 1 yields an Erdős–Rényi-like graph.
  double rewire = 0.0;
  std::uint64_t seed = 1;
  bool permute_labels = true;

  [[nodiscard]] std::uint64_t num_edges() const {
    return edges_per_vertex * num_vertices;
  }
};

/// Generate edges [begin, end) of the PA edge list.  Edge i attaches
/// vertex i/d; its target is resolved with the half-edge copy model
/// (uniform over all earlier half-edges == degree-proportional), which
/// needs no shared state and is therefore sliceable.
std::vector<edge64> pa_slice(const pa_config& cfg, std::uint64_t begin,
                             std::uint64_t end);

// ---------------------------------------------------------------------------
// Small world (Watts–Strogatz)
// ---------------------------------------------------------------------------

struct sw_config {
  std::uint64_t num_vertices = 1 << 16;
  std::uint64_t degree = 16;  ///< k: ring degree; k/2 successors per vertex
  double rewire = 0.0;        ///< probability an edge leaves the ring
  std::uint64_t seed = 1;
  bool permute_labels = true;

  [[nodiscard]] std::uint64_t num_edges() const {
    return (degree / 2) * num_vertices;
  }
};

/// Generate edges [begin, end) of the SW edge list.
std::vector<edge64> sw_slice(const sw_config& cfg, std::uint64_t begin,
                             std::uint64_t end);

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// The [begin, end) edge-index range rank r of p owns for m total edges.
struct slice_range {
  std::uint64_t begin;
  std::uint64_t end;
};
slice_range slice_for_rank(std::uint64_t total, int rank, int p);

/// Append the reverse of every edge (undirected representation: both
/// directions stored, as required by k-core and triangle counting).
void symmetrize(std::vector<edge64>& edges);

}  // namespace sfg::gen
