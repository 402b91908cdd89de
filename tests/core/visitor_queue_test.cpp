/// Configuration-matrix tests for the distributed visitor queue itself:
/// every knob of queue_config must preserve algorithm correctness, only
/// shifting performance.
#include "core/visitor_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <type_traits>

#include "core/bfs.hpp"
#include "core/kcore.hpp"
#include "core/test_helpers.hpp"
#include "core/triangles.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"

namespace sfg::core {
namespace {

using gen::edge64;
using graph::build_in_memory_graph;
using runtime::comm;
using runtime::launch;
using testing::gather_global;

struct qc_case {
  queue_config cfg;
  const char* name;
};

class QueueConfigMatrix : public ::testing::TestWithParam<int> {};

TEST_P(QueueConfigMatrix, BfsIsExactUnderEveryConfig) {
  const int variant = GetParam();
  queue_config cfg;
  std::uint32_t num_ghosts = 32;
  switch (variant) {
    case 0:  // defaults
      break;
    case 1:  // tiny aggregation buffers: every record its own packet
      cfg.aggregation_bytes = 1;
      break;
    case 2:  // huge buffers: flush only on idle
      cfg.aggregation_bytes = 1 << 24;
      break;
    case 3:  // single-visitor batches
      cfg.batch_size = 1;
      break;
    case 4:  // scrambled tie-break (locality ablation)
      cfg.tiebreak = order_tiebreak::scrambled;
      break;
    case 5:  // 2D routing with tiny buffers
      cfg.topo = mailbox::topology::grid2d;
      cfg.aggregation_bytes = 64;
      break;
    case 6:  // 3D routing, ghosts off
      cfg.topo = mailbox::topology::torus3d;
      num_ghosts = 0;
      break;
    default:
      break;
  }

  gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 91};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  launch(8, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 8);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {.num_ghosts = num_ghosts});
    auto result = run_bfs(g, g.locate(edges.front().src), cfg);
    const auto levels = gather_global(c, g, [&](std::size_t s) {
      return result.state.local(s).level;
    });
    for (const auto& [gid, level] : levels) {
      ASSERT_EQ(level, expected[gid]) << "variant " << variant;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Variants, QueueConfigMatrix,
                         ::testing::Range(0, 7));

TEST(VisitorQueue, KcoreExactWithTinyBuffers) {
  // Exact-count algorithms must survive the most packet-happy config.
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 92};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_kcore(ref, 4);
  std::uint64_t expected_size = 0;
  for (const auto a : expected) {
    if (a) ++expected_size;
  }
  launch(8, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 8);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    queue_config cfg;
    cfg.aggregation_bytes = 1;
    cfg.topo = mailbox::topology::grid2d;
    auto result = run_kcore(g, 4, cfg);
    EXPECT_EQ(result.core_size, expected_size);
  });
}

TEST(VisitorQueue, GhostTogglePreservesResultButCutsTraffic) {
  gen::rmat_config rc{.scale = 9, .edge_factor = 16, .seed = 93};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    // Ghosts do not change the slot layout, so the two graphs' slots
    // name the same vertices.
    auto g = build_in_memory_graph(c, mine, {.num_ghosts = 128});
    auto g0 = build_in_memory_graph(c, mine, {.num_ghosts = 0});
    ASSERT_EQ(g0.num_slots(), g.num_slots());
    auto r_with = run_bfs(g, g.locate(edges.front().src), {});
    auto r_without = run_bfs(g0, g0.locate(edges.front().src), {});

    // Same levels either way...
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      ASSERT_EQ(g0.global_id_of(s), g.global_id_of(s));
      ASSERT_EQ(r_with.state.local(s).level, r_without.state.local(s).level);
    }
    // ...but ghosts must reduce the records that hit the network.
    const auto sent_with = c.all_reduce(r_with.stats.visitors_sent,
                                        std::plus<>());
    const auto sent_without = c.all_reduce(r_without.stats.visitors_sent,
                                           std::plus<>());
    EXPECT_LT(sent_with, sent_without);
  });
}

TEST(VisitorQueue, BackToBackTraversalsOnOneGraph) {
  // Multiple traversals (fresh queue each) over the same graph must not
  // interfere — the Graph500 runner does 16 of these.
  gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 94};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  launch(4, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    for (const std::uint64_t src :
         {edges[0].src, edges[5].src, edges[11].src}) {
      const auto expected = reference::serial_bfs(ref, src);
      auto result = run_bfs(g, g.locate(src), {});
      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return result.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, expected[gid]);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Counters of in-place local delivery
// ---------------------------------------------------------------------------

/// The repo benchmark's counter invariant over one traversal: the mailbox
/// delta opens at do_traversal, after the seed pushes were sent, and
/// closes after they were delivered, so summed records_sent plus the seeds
/// equals summed records_delivered.  Pushes checked in place count as
/// sent and delivered at once.
void expect_balanced(comm& c, const traversal_stats& st, std::uint64_t seeds,
                     const char* what) {
  const auto sent = c.all_reduce(st.mailbox.records_sent, std::plus<>());
  const auto delivered =
      c.all_reduce(st.mailbox.records_delivered, std::plus<>());
  EXPECT_EQ(sent + seeds, delivered) << what << " at p=" << c.size();
  EXPECT_GT(sent, 0u) << what;
}

class LocalDeliveryCounters : public ::testing::TestWithParam<int> {};

TEST_P(LocalDeliveryCounters, SentPlusSeedsEqualsDelivered) {
  const int p = GetParam();
  gen::rmat_config rc{.scale = 8, .edge_factor = 8, .seed = 95};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto kcore_alive = reference::serial_kcore(ref, 4);
  const auto kcore_size = static_cast<std::uint64_t>(
      std::count(kcore_alive.begin(), kcore_alive.end(), true));
  const auto triangles = reference::serial_triangle_count(ref);
  launch(p, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), p);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {.num_ghosts = 16});
    // Back to back on one graph, one seed each.
    for (const std::uint64_t src :
         {edges[0].src, edges[7].src, edges[13].src}) {
      const auto expected = reference::serial_bfs(ref, src);
      auto r = run_bfs(g, g.locate(src));
      expect_balanced(c, r.stats, 1, "bfs");
      const auto levels = gather_global(c, g, [&](std::size_t s) {
        return r.state.local(s).level;
      });
      for (const auto& [gid, level] : levels) {
        ASSERT_EQ(level, expected[gid]) << "source " << src;
      }
    }
    // k-core and triangles seed one visitor per master vertex.
    const auto kc = run_kcore(g, 4);
    expect_balanced(c, kc.stats, g.total_vertices(), "kcore");
    EXPECT_EQ(kc.core_size, kcore_size);
    const auto tri = run_triangle_count(g);
    expect_balanced(c, tri.stats, g.total_vertices(), "triangles");
    EXPECT_EQ(tri.total_triangles, triangles);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, LocalDeliveryCounters,
                         ::testing::Values(1, 4));

struct countdown_state {
  std::uint64_t deliveries = 0;
};

/// Re-pushes itself to its own vertex until `ttl` runs out: every push
/// made inside do_traversal targets a vertex this rank masters.
struct countdown_visitor {
  graph::vertex_locator vertex;
  std::uint32_t ttl = 0;

  static constexpr bool uses_ghosts = false;

  bool pre_visit(countdown_state& s) const {
    ++s.deliveries;
    return true;
  }

  template <typename Graph, typename State, typename VQ>
  void visit(const Graph&, std::size_t, State&, VQ& vq) const {
    if (ttl > 0) vq.push(countdown_visitor{vertex, ttl - 1});
  }

  bool operator<(const countdown_visitor& o) const { return ttl > o.ttl; }
};

TEST(VisitorQueue, SeedsWaitInTheLocalArenaOnEveryTraversal) {
  // A reused queue: before each do_traversal, a seed for a vertex this
  // rank masters is buffered in the mailbox's local arena, not applied,
  // and the traversal's drain delivers it.  The re-pushes inside the
  // traversal are applied in place and counted as sent and delivered.
  gen::rmat_config rc{.scale = 6, .edge_factor = 8, .seed = 96};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  launch(3, [&](comm& c) {
    const auto range = gen::slice_for_rank(edges.size(), c.rank(), 3);
    std::vector<edge64> mine(
        edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
        edges.begin() + static_cast<std::ptrdiff_t>(range.end));
    auto g = build_in_memory_graph(c, mine, {});
    std::size_t seed_slot = g.num_slots();
    for (std::size_t s = 0; s < g.num_slots() && seed_slot == g.num_slots();
         ++s) {
      if (g.is_master(s)) seed_slot = s;
    }
    ASSERT_LT(seed_slot, g.num_slots()) << "rank " << c.rank();
    auto state = g.make_state<countdown_state>(countdown_state{});
    using graph_t = std::remove_reference_t<decltype(g)>;
    visitor_queue<graph_t, countdown_visitor, decltype(state)> vq(g, state);
    constexpr std::uint32_t kTtl = 5;
    for (std::uint64_t round = 0; round < 3; ++round) {
      vq.push(countdown_visitor{g.locator_of(seed_slot), kTtl});
      EXPECT_FALSE(vq.mail().idle()) << "seed applied before the traversal";
      EXPECT_EQ(state.local(seed_slot).deliveries, round * (kTtl + 1));
      vq.do_traversal();
      EXPECT_EQ(state.local(seed_slot).deliveries, (round + 1) * (kTtl + 1));
      EXPECT_TRUE(vq.mail().idle());
      // The queue's stats add up its traversals' deltas.
      EXPECT_EQ(vq.stats().mailbox.records_sent, (round + 1) * kTtl);
      EXPECT_EQ(vq.stats().mailbox.records_delivered,
                (round + 1) * (kTtl + 1));
      EXPECT_EQ(vq.stats().mailbox.packets_sent, 0u);
    }
  });
}

// ---------------------------------------------------------------------------
// Replica-chain delivery under transport faults
// ---------------------------------------------------------------------------

struct probe_state {
  std::uint64_t deliveries = 0;
};

/// Counts pre_visit deliveries and always forwards, so amplification
/// anywhere along the replica chain shows up as deliveries > 1.
struct probe_visitor {
  graph::vertex_locator vertex;

  static constexpr bool uses_ghosts = false;

  bool pre_visit(probe_state& s) const {
    ++s.deliveries;
    return true;
  }

  template <typename Graph, typename State, typename VQ>
  void visit(const Graph&, std::size_t, State&, VQ&) const {}

  bool operator<(const probe_visitor&) const { return false; }
};

TEST(VisitorQueue, ReplicaChainDeliversExactlyOnceUnderFaults) {
  // A hub whose adjacency dominates the edge list: after the global sort,
  // its run of edges crosses >= 3 of the 4 partition boundaries, giving a
  // long replica chain (paper Alg. 1 line 22).  Directed build keeps the
  // hub's share of the sorted list at ~94%.
  std::vector<edge64> edges;
  for (std::uint64_t t = 1; t <= 900; ++t) edges.push_back({0, t});
  for (std::uint64_t v = 901; v < 960; ++v) edges.push_back({v, v + 1});

  // Duplicate/reorder-heavy transport: a visitor forwarded down the chain
  // may arrive twice and out of order at every hop.  Exactly-once
  // delivery must come from the mailbox layer, not from luck.
  runtime::fault_params fp;
  fp.seed = 20260805;
  fp.duplicate_prob = 0.5;
  fp.reorder_prob = 0.5;
  fp.delay_prob = 0.25;
  fp.max_delay = std::chrono::microseconds(100);

  launch(
      4,
      [&](comm& c) {
        const auto range = gen::slice_for_rank(edges.size(), c.rank(), 4);
        std::vector<edge64> mine(
            edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
            edges.begin() + static_cast<std::ptrdiff_t>(range.end));
        graph::graph_build_config gcfg;
        gcfg.undirected = false;
        auto g = build_in_memory_graph(c, mine, gcfg);
        const auto hub = g.locate(0);

        // The hub's owner chain must span at least 3 ranks or this test
        // exercises nothing.
        int chain_len = 1;
        for (int r = g.next_owner_after(hub, hub.owner()); r >= 0;
             r = g.next_owner_after(hub, r)) {
          ++chain_len;
        }
        ASSERT_GE(chain_len, 3) << "hub did not split as intended";
        ASSERT_EQ(g.max_owner(hub) != hub.owner(), chain_len > 1);

        auto state = g.make_state<probe_state>(probe_state{});
        queue_config cfg;
        cfg.aggregation_bytes = 1;  // every record its own packet
        using graph_t = std::remove_reference_t<decltype(g)>;
        visitor_queue<graph_t, probe_visitor, decltype(state)> vq(g, state,
                                                                  cfg);
        if (c.rank() == hub.owner()) vq.push(probe_visitor{hub});
        vq.do_traversal();

        // Every rank holding a slice of the hub saw the visitor exactly
        // once — no loss (delay/reorder) and no amplification (duplicate).
        if (const auto slot = g.slot_of(hub)) {
          EXPECT_EQ(state.local(*slot).deliveries, 1u)
              << "rank " << c.rank() << " of chain length " << chain_len;
        }
      },
      runtime::net_params{}, fp);
}

}  // namespace
}  // namespace sfg::core
