/// \file builder.hpp
/// Construction pipeline for the distributed graph (paper §III-A1).  Every
/// partitioner runs the same pipeline; only phase 2 depends on the scheme:
///
///   1. (optional) symmetrize, drop self loops
///   2. placement: the edges this rank holds, sorted by (src, dst).
///      edge_list sample-sorts globally (sort/sample_sort.hpp, a radix
///      local sort), deduplicates, and re-balances so every rank holds
///      floor/ceil(|E|/p) edges; dbh/hdrf/sne gather the cleaned stream on
///      every rank and keep what place() assigns here
///   3. local sources: run-length over the sorted edges, in slot order
///   4. owner exchange: every rank reports (vertex, its locator, slice
///      length) for each local source to the vertex's directory rank,
///      which makes the minimum owner the master and directory entry and
///      sums the global degree; one all_gatherv replicates the split table
///      (every vertex with two or more owners, with its owner chain)
///   5. slot metadata: replica slots read their master locator and global
///      degree from the split table
///   6. the edges' (target, position) pairs are radix-sorted by target;
///      the runs are the distinct targets, resolved in one lookup round
///      at the hash-distributed directory (unknown targets are slotted
///      after the sources at their directory rank), and one walk over the
///      runs relabels every edge target to its master locator; then each
///      row is sorted
///   7. select up to k ghost candidates per rank: the remote targets with
///      the highest *local* in-degree, which is a phase-6 run's length
///      (paper §IV-B: ghosts are each partition's local view of remote
///      hubs; never synchronized)
///   8. keep this rank's directory shard, sorted by gid
///
/// The result is a plain-data `partition_blueprint` per rank; wrap it in
/// `distributed_graph<Store>` with the edge storage of your choice
/// (in-memory or external, see edge_storage.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "gen/edge.hpp"
#include "graph/partitioner.hpp"
#include "graph/vertex_locator.hpp"
#include "runtime/comm.hpp"
#include "util/rng.hpp"

namespace sfg::graph {

struct graph_build_config {
  /// Store both directions of every input edge (required by k-core and
  /// triangle counting; BFS works either way).
  bool undirected = true;
  bool remove_self_loops = true;
  /// Deduplicate parallel edges globally (RMAT produces them; triangle
  /// counting requires a simple graph).
  bool remove_duplicates = true;
  /// Maximum ghost vertices per partition (paper Fig. 13; 0 disables, and
  /// is how a run measures the visitor queue without ghost filtering).
  std::uint32_t num_ghosts = 256;
  /// Synthesize per-edge weights (hash of the endpoint global ids, so
  /// both directions of an undirected edge agree) for SSSP.  Weights stay
  /// in DRAM even for external graphs (semi-external model).
  bool make_weights = false;
  std::uint32_t max_weight = 255;  ///< weights uniform in [1, max_weight]
  /// Edge placement strategy (partitioner.hpp): the only step of
  /// build_partition that differs between schemes.
  partitioner_options partitioner{};
};

/// Deterministic symmetric edge weight in [1, max_weight].
inline std::uint32_t edge_weight_of(std::uint64_t u, std::uint64_t v,
                                    std::uint32_t max_weight) {
  const std::uint64_t lo = u < v ? u : v;
  const std::uint64_t hi = u < v ? v : u;
  return static_cast<std::uint32_t>(
             util::splitmix64(lo * 0x1000193ULL ^ util::splitmix64(hi)) %
             max_weight) +
         1;
}

/// One replicated split-table entry: a vertex whose adjacency list spans
/// several partitions.  Under edge_list there are at most p-1 of these
/// globally (paper: "each partition contains at most two split adjacency
/// lists"), so full replication is cheap; the other schemes split more.
struct split_entry {
  std::uint64_t global_id = 0;
  std::uint64_t locator_bits = 0;  ///< master locator (min_owner, slot)
  std::uint64_t global_degree = 0;
  std::vector<int> owners;  ///< ascending ranks holding a slice
};

struct partition_blueprint {
  int rank = 0;
  int p = 1;
  /// Which partitioner produced this placement.
  partitioner_kind scheme = partitioner_kind::edge_list;
  std::uint64_t total_vertices = 0;  ///< global distinct vertices
  std::uint64_t total_edges = 0;     ///< global directed edges after cleanup

  std::size_t num_sources = 0;  ///< local slots with adjacency rows
  std::size_t num_sinks = 0;    ///< local slots without (hashed here)

  /// CSR over source slots; csr_offsets.size() == num_sources + 1.
  std::vector<std::uint64_t> csr_offsets;
  /// Adjacency as locator bits, sorted ascending within each row.  The
  /// graph factories move it into the edge store, leaving it empty.
  std::vector<std::uint64_t> adj_bits;
  /// Parallel to adj_bits when graph_build_config::make_weights is set.
  std::vector<std::uint32_t> adj_weight;

  /// Per local slot (sources then sinks):
  std::vector<std::uint64_t> slot_global_id;
  std::vector<std::uint64_t> slot_locator_bits;  ///< master locator
  std::vector<std::uint64_t> slot_degree;        ///< *global* out-degree

  std::vector<split_entry> split_table;  ///< identical on every rank

  /// Ghost candidates chosen for this rank (remote hub locators, highest
  /// local in-degree first).
  std::vector<std::uint64_t> ghost_locator_bits;

  /// This rank's shard of the global-id directory: (global_id, locator
  /// bits) for every vertex v with hash(v) % p == rank, in strictly
  /// ascending gid order (distributed_graph binary-searches it).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> directory;
};

/// Collective: every rank passes its slice of the global edge list and
/// gets its blueprint from the pipeline above.  dbh/hdrf/sne placement
/// gathers the whole cleaned stream on every rank, O(|E|) memory per rank.
partition_blueprint build_partition(runtime::comm& c,
                                    std::vector<gen::edge64> edges,
                                    const graph_build_config& cfg);

/// Directory hash: which rank stores the (global_id -> locator) entry.
inline int directory_rank(std::uint64_t global_id, int p) {
  return static_cast<int>(util::splitmix64(global_id) %
                          static_cast<std::uint64_t>(p));
}

}  // namespace sfg::graph
