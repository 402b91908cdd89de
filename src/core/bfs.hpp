/// \file bfs.hpp
/// Asynchronous Breadth-First Search — paper Algorithms 2 and 3.
///
/// Every vertex starts at level infinity; a visitor carrying (length,
/// parent) improves a vertex's level in pre_visit and, when it executes,
/// re-validates against the current level (a better visitor may have
/// landed meanwhile) before expanding the local out-edges with length+1.
/// Visitors are ordered by length (min-heap), ties by vertex locator for
/// page locality.  BFS is monotone, so ghosts may filter (paper §IV-B):
/// a ghost copy of a hub's level suppresses visitors that cannot improve
/// it, collapsing the hub's incoming hotspot to O(p) messages.
#pragma once

#include <cstdint>
#include <limits>

#include "core/visitor_queue.hpp"
#include "graph/vertex_locator.hpp"
#include "graph/vertex_state.hpp"

namespace sfg::core {

struct bfs_state {
  std::uint64_t level = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t parent_bits = graph::vertex_locator::invalid().bits();

  [[nodiscard]] bool reached() const noexcept {
    return level != std::numeric_limits<std::uint64_t>::max();
  }
  [[nodiscard]] graph::vertex_locator parent() const noexcept {
    return graph::vertex_locator::from_bits(parent_bits);
  }
};

struct bfs_visitor {
  graph::vertex_locator vertex;
  std::uint64_t length = 0;
  std::uint64_t parent_bits = graph::vertex_locator::invalid().bits();

  static constexpr bool uses_ghosts = true;

  /// Paper Alg. 2, PRE_VISIT: admit only strictly improving visitors.
  bool pre_visit(bfs_state& data) const {
    if (length < data.level) {
      data.level = length;
      data.parent_bits = parent_bits;
      return true;
    }
    return false;
  }

  /// Paper Alg. 2, VISIT: expand out-edges if still the best known level.
  template <typename Graph, typename State, typename VQ>
  void visit(const Graph& g, std::size_t slot, State& state, VQ& vq) const {
    if (length != state.local(slot).level) return;  // superseded
    g.for_each_out_edge(slot, [&](graph::vertex_locator t) {
      vq.push(bfs_visitor{t, length + 1, vertex.bits()});
    });
  }

  /// Paper Alg. 2: order by length.
  bool operator<(const bfs_visitor& other) const {
    return length < other.length;
  }

  /// Bucketed local queue (core/local_queue.hpp): same key as operator<.
  [[nodiscard]] std::uint64_t priority_key() const noexcept { return length; }
};

template <typename Graph>
struct bfs_result {
  graph::vertex_state<bfs_state> state;
  traversal_stats stats;
  /// This rank's cumulative mailbox traffic matrix at traversal end (rows
  /// are all zero unless obs::metrics_on()).  Benches derive per-
  /// partitioner traffic scalars (max pair bytes, imbalance) from it.
  mailbox::routed_mailbox::traffic_matrix matrix;
};

/// Paper Algorithm 3: collective BFS from `source` (a valid locator, e.g.
/// from graph.locate()).  Returns per-slot levels/parents and the
/// traversal statistics of this rank's queue.
template <typename Graph>
bfs_result<Graph> run_bfs(Graph& g, graph::vertex_locator source,
                          const queue_config& cfg = {}) {
  auto state = g.template make_state<bfs_state>(bfs_state{});
  visitor_queue<Graph, bfs_visitor, decltype(state)> vq(g, state, cfg);
  if (g.rank() == source.owner()) {
    vq.push(bfs_visitor{source, 0, source.bits()});
  }
  vq.do_traversal();
  return {std::move(state), vq.stats(), vq.mail().matrix()};
}

}  // namespace sfg::core
