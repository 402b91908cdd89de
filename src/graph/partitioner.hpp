/// \file partitioner.hpp
/// The pluggable edge-partitioner concept.
///
/// The paper's central observation is that *where edges live* dominates
/// scale-free graph performance; its own answer is the sorted equal-size
/// edge-chunk scheme (§III-A1).  This header turns edge placement into a
/// strategy object so competitors from the edge-partitioning literature
/// run through the same builder, graph, and visitor machinery:
///
///   * edge_list — the paper's scheme: globally sort by (src, dst), split
///     into floor/ceil(|E|/p) contiguous chunks.  Exactly balanced; a
///     hub's run straddles consecutive ranks, so replica chains are short
///     and each partition holds at most two split adjacency lists.
///   * dbh — degree-based hashing (Xie et al., NIPS'14): edge (u, v) is
///     hashed by its *lower-degree* endpoint, replicating hubs instead of
///     leaves.  Stateless given degrees; owner sets of a hub can be any
///     subset of ranks.
///   * hdrf — highest-degree replicated first (Petroni et al., CIKM'15):
///     streaming greedy placement scoring each rank by replica affinity
///     (biased toward re-replicating the *higher-degree* endpoint) plus a
///     λ-weighted balance term.
///   * sne — streaming neighbor expansion (Zhang et al., KDD'17 App. B):
///     fills ranks one at a time to capacity by expanding a boundary
///     vertex set through a bounded edge cache, giving contiguous
///     communities per rank.
///
/// The contract every partitioner implements: a *deterministic, pure*
/// pass over the globally sorted (and, when configured, deduplicated)
/// edge stream returning the owner rank of every edge.  Determinism is
/// load-bearing — the streamed builder replicates the pass on every rank
/// instead of exchanging assignments (see builder.cpp).
///
/// What downstream layers may assume about ANY partitioner's output
/// (pinned by tests/graph/partition_property_test.cpp):
///   - every edge is owned by exactly one rank;
///   - a vertex's owner set, sorted ascending, forms its replica chain;
///     the master is the minimum owner and the chain is walked with
///     next_owner_after() (ranks may be skipped — chains need not be
///     consecutive, unlike edge_list's);
///   - locators name master slots, so mailbox routing via
///     master_rank(v) reaches a rank that holds v's state.
/// Nothing may assume masters form contiguous vertex blocks (true only
/// for the 1D baseline) or that a partition holds at most two split
/// lists (true only for edge_list).
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "gen/edge.hpp"
#include "graph/vertex_locator.hpp"

namespace sfg::graph {

enum class partitioner_kind : std::uint8_t {
  edge_list = 0,  ///< the paper's sorted equal-size edge chunks (default)
  dbh = 1,        ///< degree-based hashing
  hdrf = 2,       ///< highest-degree replicated first (streaming, λ knob)
  sne = 3,        ///< streaming neighbor expansion
};

/// All kinds, for test matrices and bench sweeps.
inline constexpr partitioner_kind kAllPartitioners[] = {
    partitioner_kind::edge_list, partitioner_kind::dbh,
    partitioner_kind::hdrf, partitioner_kind::sne};

[[nodiscard]] const char* partitioner_name(partitioner_kind k);

/// Parse a CLI/test spelling ("edge_list", "dbh", "hdrf", "sne").
[[nodiscard]] std::optional<partitioner_kind> parse_partitioner(
    std::string_view name);

struct partitioner_options {
  partitioner_kind kind = partitioner_kind::edge_list;
  /// HDRF balance weight λ: 0 = pure replica affinity (degenerates to
  /// greedy co-location), large = near-perfect balance.  Paper default 1.
  double hdrf_lambda = 1.0;
  /// SNE bounded edge cache (0 = default).  Larger caches give the
  /// neighbor expansion more lookahead before it must seed cold edges.
  std::uint64_t sne_cache_edges = 0;
};

/// Strategy interface: place every edge of the stream on a rank.
///
/// `stream` is the full cleaned edge list, globally sorted by (src, dst)
/// — identical on every rank of the collective build.  Implementations
/// must be deterministic functions of (stream, p, options): the streamed
/// builder runs place() redundantly per rank and keeps only the local
/// share.  Returned ranks must lie in [0, p).
class edge_partitioner {
 public:
  virtual ~edge_partitioner() = default;

  [[nodiscard]] virtual partitioner_kind kind() const noexcept = 0;
  [[nodiscard]] virtual std::vector<int> place(
      std::span<const gen::edge64> stream, int p) const = 0;

  [[nodiscard]] const char* name() const { return partitioner_name(kind()); }
};

[[nodiscard]] std::unique_ptr<edge_partitioner> make_partitioner(
    const partitioner_options& opt);

/// The graph-side contract the distributed visitor queue compiles
/// against: everything ownership- or replica-related resolves through
/// these operations, never through assumptions about vertex-id layout.
/// Satisfied by distributed_graph<Store> (any partitioner) and graph_1d.
template <typename G>
concept partitioned_graph = requires(const G& g, const vertex_locator v,
                                     std::size_t s) {
  { g.rank() } -> std::convertible_to<int>;
  { g.size() } -> std::convertible_to<int>;
  /// The rank a fresh visitor for v is mailed to (v's master partition).
  { g.master_rank(v) } -> std::convertible_to<int>;
  /// Replica chain: last rank, and the next chain rank after a given one.
  { g.max_owner(v) } -> std::convertible_to<int>;
  { g.next_owner_after(v, int{}) } -> std::convertible_to<int>;
  /// Local state slot for v, if this rank holds master/replica/sink state.
  { g.slot_of(v) } -> std::convertible_to<std::optional<std::size_t>>;
  /// Ghost filter lookup (paper §IV-B): v's local ghost slot, if any.
  { g.ghost_slot_of(v) } -> std::convertible_to<std::optional<std::size_t>>;
};

}  // namespace sfg::graph
