/// Unit tests for the edge-partitioner strategies themselves — pure
/// place() passes, no distributed build involved.  The builder-level
/// invariants (chains, exactly-once ownership) live in
/// partition_property_test.cpp; here we pin the per-scheme behavior:
/// determinism, range, edge_list's exact floor/ceil split, DBH's hub
/// spreading and orientation co-location, HDRF's λ balance knob, and
/// SNE's capacity bound.
#include "graph/partitioner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "graph/partition_metrics.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace sfg::graph {
namespace {

using gen::edge64;

/// Sorted deduped symmetric stream, the form partitioners see.
std::vector<edge64> cleaned_stream(std::vector<edge64> edges) {
  gen::symmetrize(edges);
  std::erase_if(edges, [](const edge64& e) { return e.src == e.dst; });
  std::sort(edges.begin(), edges.end(), gen::by_src_dst{});
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

std::vector<edge64> rmat_stream() {
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 909};
  return cleaned_stream(gen::rmat_slice(rc, 0, rc.num_edges()));
}

std::vector<edge64> star_stream(std::uint64_t leaves) {
  std::vector<edge64> edges;
  for (std::uint64_t t = 1; t <= leaves; ++t) edges.push_back({0, t});
  return cleaned_stream(edges);
}

TEST(PartitionerNames, RoundTrip) {
  for (const partitioner_kind k : kAllPartitioners) {
    const auto parsed = parse_partitioner(partitioner_name(k));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, k);
    EXPECT_EQ(make_partitioner({.kind = k})->kind(), k);
  }
  EXPECT_FALSE(parse_partitioner("metis").has_value());
  EXPECT_FALSE(parse_partitioner("").has_value());
}

class PlaceInvariants
    : public ::testing::TestWithParam<partitioner_kind> {};

TEST_P(PlaceInvariants, DeterministicAndInRange) {
  const auto stream = rmat_stream();
  const auto part = make_partitioner({.kind = GetParam()});
  for (const int p : {1, 3, 4, 8}) {
    const auto a = part->place(stream, p);
    const auto b = part->place(stream, p);
    ASSERT_EQ(a.size(), stream.size());
    EXPECT_EQ(a, b) << "place() must be deterministic (the builder "
                       "replicates it per rank)";
    for (const int r : a) {
      ASSERT_GE(r, 0);
      ASSERT_LT(r, p);
    }
  }
}

TEST_P(PlaceInvariants, EmptyStream) {
  const auto part = make_partitioner({.kind = GetParam()});
  EXPECT_TRUE(part->place({}, 4).empty());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PlaceInvariants,
                         ::testing::ValuesIn(kAllPartitioners),
                         [](const auto& info) {
                           return std::string(partitioner_name(info.param));
                         });

TEST(EdgeListPartitioner, MatchesClosedFormSplit) {
  const auto stream = rmat_stream();
  const auto part = make_partitioner({.kind = partitioner_kind::edge_list});
  for (const int p : {1, 3, 7, 16}) {
    const auto a = part->place(stream, p);
    // Contiguous non-decreasing chunks...
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    // ...whose sizes are exactly the closed-form floor/ceil counts.
    EXPECT_EQ(edges_per_partition_assigned(a, p),
              edges_per_partition_edge_list(stream.size(), p));
  }
}

TEST(DbhPartitioner, BothOrientationsCoLocate) {
  // DBH keys on the endpoint pair, so (u,v) and (v,u) of the symmetrized
  // stream must land on the same rank — otherwise an undirected edge
  // would be stored under two different owners.
  const auto stream = rmat_stream();
  const auto a =
      make_partitioner({.kind = partitioner_kind::dbh})->place(stream, 8);
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> where;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto key = std::minmax(stream[i].src, stream[i].dst);
    const auto [it, inserted] = where.emplace(key, a[i]);
    EXPECT_EQ(it->second, a[i])
        << "edge {" << stream[i].src << "," << stream[i].dst << "}";
  }
}

TEST(DbhPartitioner, StarHubSpreadsAcrossRanks) {
  // Every star edge has the hub as its high-degree endpoint, so DBH
  // hashes by the leaves — the hub's adjacency scatters over many ranks
  // (the whole point: replicate hubs, not leaves) while each leaf stays
  // on exactly one rank.
  const int p = 8;
  const auto stream = star_stream(512);
  const auto a =
      make_partitioner({.kind = partitioner_kind::dbh})->place(stream, p);
  const auto rep = replication_from_assignment(stream, a, p);
  std::vector<bool> hub_on(static_cast<std::size_t>(p), false);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (stream[i].src == 0 || stream[i].dst == 0) {
      hub_on[static_cast<std::size_t>(a[i])] = true;
    }
  }
  EXPECT_EQ(std::count(hub_on.begin(), hub_on.end(), true), p)
      << "512 leaves hashed over 8 ranks should hit every rank";
  // Exactly one split (chain) vertex: the hub.
  EXPECT_EQ(rep.split_vertices, 1u);
}

TEST(HdrfPartitioner, LambdaTradesReplicationForBalance) {
  const int p = 8;
  const auto stream = rmat_stream();
  const auto greedy = replication_from_assignment(
      stream,
      make_partitioner({.kind = partitioner_kind::hdrf, .hdrf_lambda = 0.05})
          ->place(stream, p),
      p);
  const auto balanced = replication_from_assignment(
      stream,
      make_partitioner({.kind = partitioner_kind::hdrf, .hdrf_lambda = 10.0})
          ->place(stream, p),
      p);
  // Larger λ weights the balance term harder: load imbalance must not
  // get worse, replication must not get better (the trade-off knob).
  EXPECT_LE(balanced.imbalance, greedy.imbalance);
  EXPECT_GE(balanced.endpoint_rf, greedy.endpoint_rf);
  // And the default λ=1 keeps the bottleneck within a sane multiple of
  // the mean (the CIKM'15 headline property).
  const auto def = replication_from_assignment(
      stream, make_partitioner({.kind = partitioner_kind::hdrf})->place(stream, p),
      p);
  EXPECT_LT(def.imbalance, 2.0);
}

TEST(SnePartitioner, RespectsCapacity) {
  const auto stream = rmat_stream();
  for (const int p : {2, 4, 8}) {
    for (const std::uint64_t cache : {std::uint64_t{0}, std::uint64_t{64}}) {
      const auto a = make_partitioner(
                         {.kind = partitioner_kind::sne, .sne_cache_edges = cache})
                         ->place(stream, p);
      const auto counts = edges_per_partition_assigned(a, p);
      const std::uint64_t cap = util::div_ceil(
          stream.size(), static_cast<std::uint64_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_LE(counts[static_cast<std::size_t>(r)], cap)
            << "rank " << r << " over capacity (p=" << p << ")";
      }
      // Expansion actually fills: no rank starves while others overflow.
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(),
                                std::uint64_t{0}),
                stream.size());
    }
  }
}

TEST(SnePartitioner, PathStaysContiguousPerRank) {
  // On a path graph, neighbor expansion from a boundary set should carve
  // the chain into few runs — each rank's vertex set is one or two
  // contiguous stretches, far below hash-scatter levels.  Probe the
  // community-preserving claim cheaply via endpoint replication: cuts
  // between ranks are where replicas appear.
  std::vector<edge64> edges;
  for (std::uint64_t v = 0; v < 400; ++v) edges.push_back({v, v + 1});
  const auto stream = cleaned_stream(std::move(edges));
  const int p = 4;
  const auto sne = replication_from_assignment(
      stream, make_partitioner({.kind = partitioner_kind::sne})->place(stream, p),
      p);
  const auto dbh = replication_from_assignment(
      stream, make_partitioner({.kind = partitioner_kind::dbh})->place(stream, p),
      p);
  EXPECT_LT(sne.endpoint_rf, dbh.endpoint_rf)
      << "expansion should cut a path far less than hashing does";
}

}  // namespace
}  // namespace sfg::graph
