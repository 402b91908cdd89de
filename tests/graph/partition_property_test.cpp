/// Randomized property tests for the edge-list partition (paper §III-A1):
/// graphs are generated from random skewed degree sequences (a few hubs,
/// many low-degree vertices) rather than fixed fixtures, and the invariants
/// the visitor algorithms rely on are checked directly:
///
///   - every vertex's owner chain runs min_owner(v) <= ... <= max_owner(v),
///     strictly increasing in rank order, and next_owner_after() walks it
///     contiguously entry by entry;
///   - every rank listed in a chain actually holds a replica slice (and no
///     rank outside the chain does);
///   - each partition holds at most two split adjacency lists (the paper's
///     §III-A1 bound, which makes full split-table replication cheap);
///   - every directed edge of the cleaned input is stored on exactly one
///     partition — reassembling all local slices reproduces the reference
///     edge list exactly, no loss and no duplication.
///
/// The first suite pins the edge_list scheme (including its ≤2 split
/// lists per partition bound, which is edge_list-ONLY).  The second
/// suite runs the scheme-independent invariants — acyclic ascending
/// chains rooted at the master, exactly-once edge ownership, and
/// replication factors matching a from-scratch recompute — across every
/// registered partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gen/edge.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partition_metrics.hpp"
#include "graph/partitioner.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace sfg::graph {
namespace {

using gen::edge64;
using runtime::comm;
using runtime::launch;

/// Directed edge list from a random skewed degree sequence: every rank
/// calling with the same seed generates the same list.
std::vector<edge64> degree_sequence_edges(std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  const std::uint64_t n = 120 + rng.uniform_below(120);
  std::vector<edge64> edges;
  for (std::uint64_t v = 0; v < n; ++v) {
    // Mostly sparse rows, with ~4% hubs whose runs are long enough to
    // straddle several rank chunks after the global sort.
    const std::uint64_t degree =
        rng.uniform_below(25) == 0 ? 40 + rng.uniform_below(200) : rng.uniform_below(6);
    for (std::uint64_t i = 0; i < degree; ++i) {
      const std::uint64_t t = rng.uniform_below(n);
      edges.push_back({v, t});
    }
  }
  return edges;
}

/// The slice of `edges` rank r contributes when p ranks split it evenly.
std::vector<edge64> slice_for(const std::vector<edge64>& edges, int r, int p) {
  const std::size_t lo = edges.size() * static_cast<std::size_t>(r) /
                         static_cast<std::size_t>(p);
  const std::size_t hi = edges.size() * (static_cast<std::size_t>(r) + 1) /
                         static_cast<std::size_t>(p);
  return {edges.begin() + static_cast<std::ptrdiff_t>(lo),
          edges.begin() + static_cast<std::ptrdiff_t>(hi)};
}

/// Serial reference: the same cleanup the builder applies (directed mode).
std::vector<edge64> cleaned_reference(std::vector<edge64> edges) {
  std::erase_if(edges, [](const edge64& e) { return e.src == e.dst; });
  std::sort(edges.begin(), edges.end(), gen::by_src_dst{});
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

class PartitionPropertyP : public ::testing::TestWithParam<int> {};

TEST_P(PartitionPropertyP, OwnerChainsAreContiguousAndIncreasing) {
  const int p = GetParam();
  for (const std::uint64_t seed : {11u, 223u, 4057u}) {
    const auto edges = degree_sequence_edges(seed);
    launch(p, [&](comm& c) {
      const graph_build_config cfg{.undirected = false, .num_ghosts = 0};
      auto g = build_in_memory_graph(c, slice_for(edges, c.rank(), p), cfg);

      for (const auto& e : g.split_table()) {
        const auto v = vertex_locator::from_bits(e.locator_bits);
        ASSERT_GE(e.owners.size(), 2u) << "split entry with a trivial chain";
        // Chain endpoints: the master locator is the min owner, and
        // max_owner() reports the chain's last rank.
        EXPECT_EQ(e.owners.front(), v.owner());
        EXPECT_EQ(e.owners.back(), g.max_owner(v));
        EXPECT_LE(v.owner(), g.max_owner(v));
        // Strictly increasing rank order.
        for (std::size_t i = 1; i < e.owners.size(); ++i) {
          EXPECT_LT(e.owners[i - 1], e.owners[i]);
        }
        // next_owner_after() walks the chain contiguously: from each link
        // it yields exactly the next entry, and -1 off the end.
        for (std::size_t i = 0; i + 1 < e.owners.size(); ++i) {
          EXPECT_EQ(g.next_owner_after(v, e.owners[i]), e.owners[i + 1]);
        }
        EXPECT_EQ(g.next_owner_after(v, e.owners.back()), -1);
        // Membership matches storage: ranks on the chain hold a slice of
        // the vertex, ranks off it do not (sinks hashed here aside, a
        // split vertex is always a source).
        const bool on_chain = std::find(e.owners.begin(), e.owners.end(),
                                        c.rank()) != e.owners.end();
        EXPECT_EQ(g.slot_of(v).has_value(), on_chain);
      }

      // Non-split vertices have a single-rank "chain".
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        const auto v = g.locator_of(s);
        EXPECT_LE(v.owner(), g.max_owner(v));
        if (g.max_owner(v) == v.owner()) {
          EXPECT_EQ(g.next_owner_after(v, v.owner()), -1);
        }
      }

      // Paper §III-A1: at most two split adjacency lists per partition.
      int split_here = 0;
      for (const auto& e : g.split_table()) {
        if (std::find(e.owners.begin(), e.owners.end(), c.rank()) !=
            e.owners.end()) {
          ++split_here;
        }
      }
      EXPECT_LE(split_here, 2);
    });
  }
}

TEST_P(PartitionPropertyP, EveryEdgeOwnedByExactlyOnePartition) {
  const int p = GetParam();
  for (const std::uint64_t seed : {17u, 991u, 31337u}) {
    const auto edges = degree_sequence_edges(seed);
    const auto expected = cleaned_reference(edges);
    launch(p, [&](comm& c) {
      const graph_build_config cfg{.undirected = false, .num_ghosts = 0};
      auto g = build_in_memory_graph(c, slice_for(edges, c.rank(), p), cfg);
      EXPECT_EQ(g.total_edges(), expected.size());

      // Master locator -> global id, assembled from every rank's slots
      // (targets are always master locators).
      std::vector<std::pair<std::uint64_t, std::uint64_t>> mine;
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        if (g.is_master(s)) {
          mine.emplace_back(g.locator_of(s).bits(), g.global_id_of(s));
        }
      }
      const auto all_ids = c.all_gatherv(
          std::span<const std::pair<std::uint64_t, std::uint64_t>>(mine),
          nullptr);
      std::map<std::uint64_t, std::uint64_t> gid_of(all_ids.begin(),
                                                    all_ids.end());

      // Reassemble the distributed adjacency: each stored (slot, target)
      // pair becomes a global edge.  Exactly-once ownership means the
      // concatenation over ranks equals the reference list element for
      // element — a lost edge shrinks it, a double-stored edge grows it.
      std::vector<edge64> local;
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        const std::uint64_t src = g.global_id_of(s);
        g.for_each_out_edge(s, [&](vertex_locator t) {
          local.push_back({src, gid_of.at(t.bits())});
        });
      }
      auto assembled = c.all_gatherv(std::span<const edge64>(local), nullptr);
      std::sort(assembled.begin(), assembled.end(), gen::by_src_dst{});
      EXPECT_EQ(assembled, expected);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, PartitionPropertyP,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Scheme-independent invariants, across every partitioner.
// ---------------------------------------------------------------------------

class PartitionerPropertyP
    : public ::testing::TestWithParam<std::tuple<int, partitioner_kind>> {};

TEST_P(PartitionerPropertyP, ChainsAcyclicRootedAtMaster) {
  const auto [p, kind] = GetParam();
  for (const std::uint64_t seed : {11u, 4057u}) {
    const auto edges = degree_sequence_edges(seed);
    launch(p, [&, kind = kind](comm& c) {
      graph_build_config cfg{.undirected = false, .num_ghosts = 0};
      cfg.partitioner.kind = kind;
      auto g = build_in_memory_graph(c, slice_for(edges, c.rank(), p), cfg);

      for (const auto& e : g.split_table()) {
        const auto v = vertex_locator::from_bits(e.locator_bits);
        ASSERT_GE(e.owners.size(), 2u);
        // Rooted at the master: the chain starts at the locator's owner.
        EXPECT_EQ(e.owners.front(), v.owner());
        EXPECT_EQ(e.owners.back(), g.max_owner(v));
        // Acyclic by construction: strictly increasing rank order, so a
        // forward walk can never revisit a rank.
        for (std::size_t i = 1; i < e.owners.size(); ++i) {
          EXPECT_LT(e.owners[i - 1], e.owners[i]);
        }
        // next_owner_after() visits each link once and terminates.
        int hops = 0;
        for (int r = g.master_rank(v); r >= 0; r = g.next_owner_after(v, r)) {
          ASSERT_LE(++hops, static_cast<int>(e.owners.size()));
          EXPECT_EQ(r, e.owners[static_cast<std::size_t>(hops - 1)]);
        }
        EXPECT_EQ(hops, static_cast<int>(e.owners.size()));
        // Chain membership matches storage on this rank.
        const bool on_chain = std::find(e.owners.begin(), e.owners.end(),
                                        c.rank()) != e.owners.end();
        EXPECT_EQ(g.slot_of(v).has_value(), on_chain);
      }

      // Every master slot's locator points back at this rank and slot —
      // no scheme may break "locators name master slots".
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        const auto v = g.locator_of(s);
        EXPECT_LE(g.master_rank(v), g.max_owner(v));
        if (g.is_master(s)) {
          EXPECT_EQ(g.master_rank(v), c.rank());
          EXPECT_EQ(static_cast<std::size_t>(v.local_id()), s);
        }
      }
    });
  }
}

TEST_P(PartitionerPropertyP, EveryEdgeOwnedExactlyOnce) {
  const auto [p, kind] = GetParam();
  for (const std::uint64_t seed : {17u, 31337u}) {
    const auto edges = degree_sequence_edges(seed);
    const auto expected = cleaned_reference(edges);
    launch(p, [&, kind = kind](comm& c) {
      graph_build_config cfg{.undirected = false, .num_ghosts = 0};
      cfg.partitioner.kind = kind;
      auto g = build_in_memory_graph(c, slice_for(edges, c.rank(), p), cfg);
      EXPECT_EQ(g.total_edges(), expected.size());

      std::vector<std::pair<std::uint64_t, std::uint64_t>> mine;
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        if (g.is_master(s)) {
          mine.emplace_back(g.locator_of(s).bits(), g.global_id_of(s));
        }
      }
      const auto all_ids = c.all_gatherv(
          std::span<const std::pair<std::uint64_t, std::uint64_t>>(mine),
          nullptr);
      std::map<std::uint64_t, std::uint64_t> gid_of(all_ids.begin(),
                                                    all_ids.end());

      std::vector<edge64> local;
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        const std::uint64_t src = g.global_id_of(s);
        g.for_each_out_edge(s, [&](vertex_locator t) {
          local.push_back({src, gid_of.at(t.bits())});
        });
      }
      auto assembled = c.all_gatherv(std::span<const edge64>(local), nullptr);
      std::sort(assembled.begin(), assembled.end(), gen::by_src_dst{});
      EXPECT_EQ(assembled, expected);
    });
  }
}

TEST_P(PartitionerPropertyP, ReplicationFactorMatchesRecompute) {
  const auto [p, kind] = GetParam();
  const auto edges = degree_sequence_edges(223);
  // Ground truth from the cleaned stream + a fresh partitioner pass —
  // exactly the builder's placement (edge_list reaches the same chunks
  // through the distributed sort and rebalance_even).
  const auto stream = cleaned_reference(edges);
  const auto assignment =
      make_partitioner({.kind = kind})->place(stream, p);
  const auto expected = replication_from_assignment(stream, assignment, p);

  launch(p, [&, kind = kind](comm& c) {
    graph_build_config cfg{.undirected = false, .num_ghosts = 0};
    cfg.partitioner.kind = kind;
    auto g = build_in_memory_graph(c, slice_for(edges, c.rank(), p), cfg);
    const auto measured = measure_replication(g);
    EXPECT_EQ(measured.sources, expected.sources);
    EXPECT_EQ(measured.vertices, expected.vertices);
    EXPECT_EQ(measured.split_vertices, expected.split_vertices);
    EXPECT_EQ(measured.edges_per_rank, expected.edges_per_rank);
    EXPECT_EQ(measured.bottleneck_edges, expected.bottleneck_edges);
    EXPECT_DOUBLE_EQ(measured.chain_rf, expected.chain_rf);
    EXPECT_DOUBLE_EQ(measured.endpoint_rf, expected.endpoint_rf);
    EXPECT_DOUBLE_EQ(measured.imbalance, expected.imbalance);
    // The split table agrees with the measured split count.
    std::uint64_t table_splits = 0;
    for (const auto& e : g.split_table()) {
      table_splits += e.owners.size() > 1 ? 1 : 0;
    }
    EXPECT_EQ(table_splits, measured.split_vertices);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitionerPropertyP,
    ::testing::Combine(::testing::Values(1, 3, 4, 8),
                       ::testing::ValuesIn(kAllPartitioners)),
    [](const ::testing::TestParamInfo<PartitionerPropertyP::ParamType>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_" +
             partitioner_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace sfg::graph
