/// \file partition_1d.hpp
/// Baseline 1D vertex-block partitioned graph (paper §III-A1, Figure 12's
/// comparator).  Vertex v and its *entire* adjacency list live on rank
/// v / ceil(V/p).  No split vertices, no replicas, no ghosts — and hence
/// the data imbalance the paper shows: a single hub's adjacency list can
/// exceed a partition's fair share of edges.
///
/// Exposes the same interface surface as distributed_graph so the
/// distributed visitor queue and all algorithms run on it unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gen/edge.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/vertex_locator.hpp"
#include "runtime/comm.hpp"

namespace sfg::graph {

class graph_1d {
 public:
  struct config {
    bool undirected = true;
    bool remove_self_loops = true;
    bool remove_duplicates = true;
  };

  /// Collective: build from each rank's slice of the edge list.
  /// `num_vertices` fixes the vertex id domain [0, num_vertices).
  graph_1d(runtime::comm& c, std::vector<gen::edge64> edges,
           std::uint64_t num_vertices, const config& cfg);
  graph_1d(runtime::comm& c, std::vector<gen::edge64> edges,
           std::uint64_t num_vertices)
      : graph_1d(c, std::move(edges), num_vertices, config{}) {}

  // ---- identity / totals ----
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return p_; }
  [[nodiscard]] runtime::comm& comm() const noexcept { return *comm_; }
  [[nodiscard]] std::uint64_t total_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::uint64_t total_edges() const noexcept {
    return total_edges_;
  }

  // ---- slots: every vertex of my block, adjacency or not ----
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return block_size_;
  }
  [[nodiscard]] std::size_t num_ghosts() const noexcept { return 0; }

  [[nodiscard]] std::optional<std::size_t> slot_of(vertex_locator v) const {
    if (v.owner() != rank_) return std::nullopt;
    return static_cast<std::size_t>(v.local_id());
  }
  [[nodiscard]] vertex_locator locator_of(std::size_t s) const {
    return {rank_, s};
  }
  [[nodiscard]] std::uint64_t global_id_of(std::size_t s) const {
    return block_begin_ + s;
  }
  [[nodiscard]] std::uint64_t degree_of(std::size_t s) const {
    return csr_offsets_[s + 1] - csr_offsets_[s];
  }
  [[nodiscard]] bool is_master(std::size_t) const { return true; }

  // ---- adjacency ----
  [[nodiscard]] std::size_t local_out_degree(std::size_t s) const {
    return degree_of(s);
  }
  template <typename Fn>
  void for_each_out_edge(std::size_t s, Fn&& fn) const {
    for (std::uint64_t i = csr_offsets_[s]; i < csr_offsets_[s + 1]; ++i) {
      fn(vertex_locator::from_bits(adj_bits_[i]));
    }
  }
  [[nodiscard]] bool has_local_out_edge(std::size_t s,
                                        vertex_locator target) const;

  // ---- no replicas, no ghosts ----
  [[nodiscard]] int master_rank(vertex_locator v) const noexcept {
    return v.owner();
  }
  [[nodiscard]] int max_owner(vertex_locator v) const { return v.owner(); }
  [[nodiscard]] int next_owner_after(vertex_locator, int) const { return -1; }
  [[nodiscard]] std::optional<std::size_t> ghost_slot_of(vertex_locator) const {
    return std::nullopt;
  }

  template <typename T>
  [[nodiscard]] vertex_state<T> make_state(T init) const {
    return vertex_state<T>(num_slots(), 0, init);
  }

  /// Non-collective: the 1D locator of any global id is computable.
  [[nodiscard]] vertex_locator locate(std::uint64_t gid) const {
    return {static_cast<int>(gid / block_stride_), gid % block_stride_};
  }

  /// Local edge count — the Figure 12 imbalance measure.
  [[nodiscard]] std::uint64_t local_edge_count() const noexcept {
    return adj_bits_.size();
  }

 private:
  runtime::comm* comm_;
  int rank_;
  int p_;
  std::uint64_t num_vertices_;
  std::uint64_t block_stride_;  ///< ceil(V/p)
  std::uint64_t block_begin_;
  std::size_t block_size_;
  std::uint64_t total_edges_ = 0;
  std::vector<std::uint64_t> csr_offsets_;
  std::vector<std::uint64_t> adj_bits_;
};

}  // namespace sfg::graph
