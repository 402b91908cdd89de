/// \file distributed_graph.hpp
/// The edge-list partitioned distributed graph (paper §III-A1), generic
/// over where its adjacency bits live (in_memory_edges / external_edges).
///
/// Local slot layout on each rank:
///   [0, num_sources)              sources in this rank's sorted edge chunk
///                                 (CSR rows; includes replica slices of
///                                 split vertices)
///   [num_sources, num_slots)      sinks hashed to this rank (no edges)
///
/// A vertex's *locator* names its master slot: (min_owner, slot-on-master).
/// Replica ranks resolve the same locator through a tiny local map — there
/// are at most two split adjacency lists per partition (paper §III-A1).
#pragma once

#include <cassert>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/builder.hpp"
#include "graph/edge_storage.hpp"
#include "graph/vertex_locator.hpp"
#include "graph/vertex_state.hpp"
#include "obs/phase.hpp"
#include "runtime/comm.hpp"

namespace sfg::graph {

/// Ghost locator -> ghost slot (paper §IV-B).  The ghost filter probes
/// this on every push, so it is one flat open-addressing table of keys: a
/// power of two at load <= 1/8, a multiplicative hash over the high bits
/// of the product, linear probing, and the slots in a parallel array read
/// only on a hit.  Most pushes miss, and a miss probes ~1.2 keys at load
/// 1/8 against ~2.5 at load 1/2, each probe a data-dependent branch; 256
/// ghosts take 32 KiB.  vertex_locator::invalid() marks an empty key, so
/// it can never be a ghost (io::load_blueprint rejects it).
class ghost_index {
 public:
  /// `keys[g]` maps to slot g.  Keys must be distinct and valid.
  explicit ghost_index(std::span<const std::uint64_t> keys) {
    unsigned log2 = 1;
    while ((std::size_t{1} << log2) < 8 * keys.size()) ++log2;
    shift_ = 64 - log2;
    mask_ = (std::size_t{1} << log2) - 1;
    keys_.assign(mask_ + 1, kEmpty);
    slots_.assign(mask_ + 1, 0);
    for (std::size_t g = 0; g < keys.size(); ++g) {
      assert(keys[g] != kEmpty);
      std::size_t i = home(keys[g]);
      while (keys_[i] != kEmpty) {
        assert(keys_[i] != keys[g]);
        i = (i + 1) & mask_;
      }
      keys_[i] = keys[g];
      slots_[i] = g;
    }
  }

  [[nodiscard]] std::optional<std::size_t> find(std::uint64_t key) const noexcept {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (keys_[i] == kEmpty) return std::nullopt;
      if (keys_[i] == key) return slots_[i];
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = vertex_locator::invalid().bits();

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::size_t> slots_;
  unsigned shift_;
  std::size_t mask_;
};

template <typename Store = in_memory_edges>
class distributed_graph {
 public:
  using store_type = Store;

  /// Wrap a built blueprint plus its adjacency storage.  `store` must
  /// contain exactly bp.adj_bits (the in-memory factory below does this;
  /// external callers write the bits to a device first).
  distributed_graph(runtime::comm& c, partition_blueprint bp, Store store)
      : comm_(&c),
        bp_(std::move(bp)),
        store_(std::move(store)),
        ghost_index_(bp_.ghost_locator_bits) {
    for (std::size_t s = 0; s < num_slots(); ++s) {
      const auto loc = vertex_locator::from_bits(bp_.slot_locator_bits[s]);
      if (loc.owner() != rank()) replica_slot_.emplace(loc.bits(), s);
      global_to_slot_.emplace(bp_.slot_global_id[s], s);
    }
    for (const auto& e : bp_.split_table) {
      split_by_locator_.emplace(e.locator_bits, &e);
    }
    directory_.insert(bp_.directory.begin(), bp_.directory.end());
  }

  // ---- identity / totals ----

  [[nodiscard]] int rank() const noexcept { return bp_.rank; }
  [[nodiscard]] int size() const noexcept { return bp_.p; }
  [[nodiscard]] runtime::comm& comm() const noexcept { return *comm_; }
  /// Which partitioner produced this placement.
  [[nodiscard]] partitioner_kind scheme() const noexcept { return bp_.scheme; }
  /// The rank a fresh visitor for `v` must be mailed to.  Locators always
  /// name master slots, whatever the partitioner, so this is the locator's
  /// owner field — but routing goes through this accessor (the
  /// partitioned_graph concept), never through layout assumptions.
  [[nodiscard]] int master_rank(vertex_locator v) const noexcept {
    return v.owner();
  }
  /// Local adjacency slice length (valid for external stores too, where
  /// blueprint().adj_bits has been released).
  [[nodiscard]] std::uint64_t local_edge_count() const noexcept {
    return bp_.csr_offsets.empty() ? 0 : bp_.csr_offsets.back();
  }
  [[nodiscard]] std::uint64_t total_vertices() const noexcept {
    return bp_.total_vertices;
  }
  [[nodiscard]] std::uint64_t total_edges() const noexcept {
    return bp_.total_edges;
  }

  // ---- local slots ----

  [[nodiscard]] std::size_t num_sources() const noexcept {
    return bp_.num_sources;
  }
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return bp_.num_sources + bp_.num_sinks;
  }
  [[nodiscard]] std::size_t num_ghosts() const noexcept {
    return bp_.ghost_locator_bits.size();
  }

  /// The local slot holding state for `v`, if this rank has one (master
  /// slot, replica slice, or local sink).
  [[nodiscard]] std::optional<std::size_t> slot_of(vertex_locator v) const {
    if (v.owner() == rank()) {
      const auto slot = static_cast<std::size_t>(v.local_id());
      return slot < num_slots() ? std::optional(slot) : std::nullopt;
    }
    if (const auto it = replica_slot_.find(v.bits());
        it != replica_slot_.end()) {
      return it->second;
    }
    return std::nullopt;
  }

  /// Master locator of the vertex in local slot `s`.
  [[nodiscard]] vertex_locator locator_of(std::size_t s) const {
    return vertex_locator::from_bits(bp_.slot_locator_bits[s]);
  }

  [[nodiscard]] std::uint64_t global_id_of(std::size_t s) const {
    return bp_.slot_global_id[s];
  }

  /// Global out-degree of the vertex in slot `s` (summed across replicas
  /// for split vertices — what k-core initialization needs).
  [[nodiscard]] std::uint64_t degree_of(std::size_t s) const {
    return bp_.slot_degree[s];
  }

  /// True if this rank is the vertex's master (min_owner) partition.
  /// Sinks are mastered where they are slotted.
  [[nodiscard]] bool is_master(std::size_t s) const {
    return locator_of(s).owner() == rank();
  }

  // ---- adjacency (local slice only, by design) ----

  [[nodiscard]] std::size_t local_out_degree(std::size_t s) const {
    if (s >= bp_.num_sources) return 0;  // sink
    return bp_.csr_offsets[s + 1] - bp_.csr_offsets[s];
  }

  /// Visit each target locator of slot `s`'s local adjacency slice.
  /// Phase attribution: the whole row walk is `scan`; work the callback
  /// triggers (mailbox packing, page-cache I/O) nests out into its own
  /// phase, so scan self-time is pure adjacency traversal.
  template <typename Fn>
  void for_each_out_edge(std::size_t s, Fn&& fn) const {
    if (s >= bp_.num_sources) return;
    const obs::phase_scope pscope(obs::phase::scan);
    store_.for_each(bp_.csr_offsets[s], bp_.csr_offsets[s + 1],
                    [&fn](std::uint64_t bits) {
                      fn(vertex_locator::from_bits(bits));
                    });
  }

  /// Like for_each_out_edge, but `fn` returns a bool: false stops the
  /// scan.  Returns true iff the whole slice was visited.  The bottom-up
  /// BFS probe lives on this: an unvisited vertex stops at its FIRST
  /// frontier neighbor, so a hub's probe is O(1) once the frontier is
  /// dense instead of O(degree).
  template <typename Fn>
  bool for_each_out_edge_while(std::size_t s, Fn&& fn) const {
    if (s >= bp_.num_sources) return true;
    const obs::phase_scope pscope(obs::phase::scan);
    return store_.for_each_while(bp_.csr_offsets[s], bp_.csr_offsets[s + 1],
                                 [&fn](std::uint64_t bits) {
                                   return fn(vertex_locator::from_bits(bits));
                                 });
  }

  /// Visit (target, weight) pairs of slot `s`'s local adjacency slice.
  /// Requires graph_build_config::make_weights at build time; weights are
  /// DRAM-resident regardless of edge storage (semi-external model).
  template <typename Fn>
  void for_each_out_edge_weighted(std::size_t s, Fn&& fn) const {
    if (s >= bp_.num_sources) return;
    const obs::phase_scope pscope(obs::phase::scan);
    assert(!bp_.adj_weight.empty());
    std::size_t i = bp_.csr_offsets[s];
    store_.for_each(bp_.csr_offsets[s], bp_.csr_offsets[s + 1],
                    [&](std::uint64_t bits) {
                      fn(vertex_locator::from_bits(bits), bp_.adj_weight[i]);
                      ++i;
                    });
  }

  [[nodiscard]] bool has_weights() const noexcept {
    return !bp_.adj_weight.empty();
  }

  /// Is `target` among slot `s`'s local out-edges?  (Triangle counting's
  /// closing-edge test; rows are sorted, so this is a binary search.)
  [[nodiscard]] bool has_local_out_edge(std::size_t s,
                                        vertex_locator target) const {
    if (s >= bp_.num_sources) return false;
    return store_.contains_in_range(bp_.csr_offsets[s], bp_.csr_offsets[s + 1],
                                    target.bits());
  }

  // ---- split vertices / replica chain (paper Alg. 1, line 22) ----

  /// Highest rank holding a slice of `v` (== v.owner() if not split).
  [[nodiscard]] int max_owner(vertex_locator v) const {
    const auto it = split_by_locator_.find(v.bits());
    return it == split_by_locator_.end() ? v.owner()
                                         : it->second->owners.back();
  }

  /// The next rank after `r` in v's owner chain, or -1 at the chain's end.
  /// (Owner chains may skip ranks that hold no edges at all, so this is
  /// not always r + 1.)
  [[nodiscard]] int next_owner_after(vertex_locator v, int r) const {
    const auto it = split_by_locator_.find(v.bits());
    if (it == split_by_locator_.end()) return -1;
    for (const int o : it->second->owners) {
      if (o > r) return o;
    }
    return -1;
  }

  [[nodiscard]] const std::vector<split_entry>& split_table() const noexcept {
    return bp_.split_table;
  }

  // ---- ghosts (paper §IV-B) ----

  /// The local ghost slot for `v`, if this rank keeps a ghost of it.
  [[nodiscard]] std::optional<std::size_t> ghost_slot_of(
      vertex_locator v) const noexcept {
    return ghost_index_.find(v.bits());
  }

  // ---- state factory ----

  template <typename T>
  [[nodiscard]] vertex_state<T> make_state(T init) const {
    return vertex_state<T>(num_slots(), num_ghosts(), init);
  }

  // ---- global-id resolution ----

  /// Local probe of this rank's directory shard; valid only when
  /// directory_rank(gid, p) == rank().
  [[nodiscard]] std::optional<vertex_locator> directory_probe(
      std::uint64_t gid) const {
    const auto it = directory_.find(gid);
    if (it == directory_.end()) return std::nullopt;
    return vertex_locator::from_bits(it->second);
  }

  /// Collective: resolve a global vertex id to its locator (invalid() if
  /// the vertex does not exist).  Every rank must call with the same gid.
  [[nodiscard]] vertex_locator locate(std::uint64_t gid) const {
    const int d = directory_rank(gid, size());
    std::uint64_t bits = vertex_locator::invalid().bits();
    if (rank() == d) {
      if (const auto v = directory_probe(gid)) bits = v->bits();
    }
    return vertex_locator::from_bits(comm_->broadcast(bits, d));
  }

  /// Local slot of a global id, if this rank stores one.
  [[nodiscard]] std::optional<std::size_t> local_slot_of_global(
      std::uint64_t gid) const {
    const auto it = global_to_slot_.find(gid);
    if (it == global_to_slot_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] const partition_blueprint& blueprint() const noexcept {
    return bp_;
  }

 private:
  runtime::comm* comm_;
  partition_blueprint bp_;
  Store store_;
  ghost_index ghost_index_;
  std::unordered_map<std::uint64_t, std::size_t> replica_slot_;
  std::unordered_map<std::uint64_t, const split_entry*> split_by_locator_;
  std::unordered_map<std::uint64_t, std::uint64_t> directory_;
  std::unordered_map<std::uint64_t, std::size_t> global_to_slot_;
};

/// Build a DRAM-resident graph in one call (the common case).
inline distributed_graph<in_memory_edges> build_in_memory_graph(
    runtime::comm& c, std::vector<gen::edge64> edges,
    const graph_build_config& cfg = {}) {
  partition_blueprint bp = build_partition(c, std::move(edges), cfg);
  in_memory_edges store(bp.adj_bits);
  return distributed_graph<in_memory_edges>(c, std::move(bp), std::move(store));
}

/// Build an external-memory graph: adjacency bits are written to `dev`
/// (starting at byte 0) and accessed through `cache` thereafter.  The
/// blueprint's in-DRAM copy of the bits is released.
inline distributed_graph<external_edges> build_external_graph(
    runtime::comm& c, std::vector<gen::edge64> edges,
    const graph_build_config& cfg, storage::block_device& dev,
    storage::page_cache& cache) {
  partition_blueprint bp = build_partition(c, std::move(edges), cfg);
  storage::write_array<std::uint64_t>(dev, 0, bp.adj_bits);
  external_edges store(cache, 0, bp.adj_bits.size());
  bp.adj_bits.clear();
  bp.adj_bits.shrink_to_fit();
  return distributed_graph<external_edges>(c, std::move(bp), std::move(store));
}

}  // namespace sfg::graph
