/// \file bucket_queue_test.cpp
/// Equivalence of the bucketed local queue against the reference binary
/// heap, for every algorithm's visitor type (ISSUE 3 satellite).
///
/// The two containers share one ordering contract: pop in ascending
/// (priority, tie-key) order.  Entries that are equal in BOTH components
/// (same priority class, same tie-key) may legally pop in either order,
/// so the randomized comparisons check the (priority-class, tie-key)
/// *sequence*, not payload identity.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "core/bfs.hpp"
#include "core/bfs_validate.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/local_queue.hpp"
#include "core/pagerank.hpp"
#include "core/sssp.hpp"
#include "core/triangles.hpp"
#include "core/wedge_sampling.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfg;  // NOLINT: test-local convenience

graph::vertex_locator rand_locator(std::mt19937_64& rng) {
  return {static_cast<int>(rng() % 8), rng() % (1u << 16)};
}

/// The observable pop identity: priority equivalence class (via the
/// visitor's own operator<, against the previously popped visitor) plus
/// the exact tie-key.  Two queues agree iff these sequences agree.
template <typename Visitor>
struct pop_probe {
  std::uint64_t tie;
  bool pri_increased;  ///< strictly greater priority than previous pop
};

template <typename Visitor, typename Make>
void drive_and_compare(core::order_tiebreak mode, Make make,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  core::bucket_queue<Visitor> bucket(mode);
  core::heap_queue<Visitor> heap(mode);

  // Interleaved pushes and pops in random batch sizes, ending with a
  // full drain: exercises rebase, overflow migration and prefix erasure.
  bool have_prev = false;
  Visitor prev_b{}, prev_h{};
  std::size_t pops = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t pushes = rng() % 32;
    for (std::size_t i = 0; i < pushes; ++i) {
      const Visitor v = make(rng);
      bucket.push(v);
      heap.push(v);
    }
    ASSERT_EQ(bucket.size(), heap.size());
    std::size_t drains = rng() % 32;
    if (round == 199) drains = bucket.size();  // final full drain
    have_prev = false;  // pushes may legally introduce smaller keys
    for (std::size_t i = 0; i < drains && !bucket.empty(); ++i, ++pops) {
      const Visitor b = bucket.top();
      const Visitor h = heap.top();
      bucket.pop();
      heap.pop();
      // Same priority class...
      ASSERT_FALSE(b < h) << "pop " << pops;
      ASSERT_FALSE(h < b) << "pop " << pops;
      // ...same tie-key...
      ASSERT_EQ(core::tie_key(b.vertex.bits(), mode),
                core::tie_key(h.vertex.bits(), mode))
          << "pop " << pops;
      // ...and both sequences are non-decreasing in (priority, tie).
      if (have_prev) {
        ASSERT_FALSE(b < prev_b) << "bucket order regressed at pop " << pops;
        ASSERT_FALSE(h < prev_h) << "heap order regressed at pop " << pops;
        if (!(prev_b < b)) {  // equal priority: tie must not regress
          ASSERT_LE(core::tie_key(prev_b.vertex.bits(), mode),
                    core::tie_key(b.vertex.bits(), mode))
              << "bucket tie regressed at pop " << pops;
        }
      }
      prev_b = b;
      prev_h = h;
      have_prev = true;
    }
  }
  ASSERT_TRUE(bucket.empty());
  ASSERT_TRUE(heap.empty());
  EXPECT_GT(pops, 1000u);  // the schedule actually exercised the queues
}

core::bfs_visitor make_bfs(std::mt19937_64& rng) {
  // Mostly slowly-advancing levels plus occasional far-future spikes to
  // force the overflow heap, and level-0 stragglers to force rebases.
  std::uint64_t len = rng() % 16;
  if (rng() % 64 == 0) len += 1 << 20;  // overflow territory
  return {rand_locator(rng), len, rng()};
}

core::sssp_visitor make_sssp(std::mt19937_64& rng) {
  std::uint64_t d = rng() % 4096;
  if (rng() % 32 == 0) d += 1u << 18;
  return {rand_locator(rng), d, rng()};
}

core::kcore_visitor make_kcore(std::mt19937_64& rng) {
  return {rand_locator(rng), static_cast<std::uint32_t>(rng() % 8)};
}

core::triangle_visitor make_triangle(std::mt19937_64& rng) {
  return {rand_locator(rng), rand_locator(rng), rand_locator(rng)};
}

core::wedge_visitor make_wedge(std::mt19937_64& rng) {
  return {rand_locator(rng), rand_locator(rng)};
}

core::bfs_validate_visitor make_validate(std::mt19937_64& rng) {
  return {rand_locator(rng), rand_locator(rng), rng() % 64};
}

TEST(bucket_queue, keyed_visitors_opt_in) {
  static_assert(core::keyed_visitor<core::bfs_visitor>);
  static_assert(core::keyed_visitor<core::sssp_visitor>);
  static_assert(core::keyed_visitor<core::kcore_visitor>);
  static_assert(core::keyed_visitor<core::triangle_visitor>);
  static_assert(core::keyed_visitor<core::wedge_visitor>);
  static_assert(core::keyed_visitor<core::bfs_validate_visitor>);
  // Non-integral priorities stay on the heap fallback.
  static_assert(!core::keyed_visitor<core::cc_visitor>);
  static_assert(!core::keyed_visitor<core::pagerank_visitor>);
  // The local queue's container follows the visitor type.
  static_assert(std::is_same_v<core::queue_container<core::bfs_visitor>::type,
                               core::bucket_queue<core::bfs_visitor>>);
  static_assert(std::is_same_v<core::queue_container<core::cc_visitor>::type,
                               core::heap_queue<core::cc_visitor>>);
}

TEST(bucket_queue, bfs_matches_heap) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    drive_and_compare<core::bfs_visitor>(
        core::order_tiebreak::vertex_locality, make_bfs, seed);
  }
}

TEST(bucket_queue, bfs_matches_heap_scrambled) {
  for (std::uint64_t seed : {5u, 6u}) {
    drive_and_compare<core::bfs_visitor>(core::order_tiebreak::scrambled,
                                         make_bfs, seed);
  }
}

TEST(bucket_queue, sssp_matches_heap) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    drive_and_compare<core::sssp_visitor>(
        core::order_tiebreak::vertex_locality, make_sssp, seed);
  }
}

TEST(bucket_queue, kcore_matches_heap) {
  drive_and_compare<core::kcore_visitor>(
      core::order_tiebreak::vertex_locality, make_kcore, 10);
}

TEST(bucket_queue, triangle_matches_heap) {
  drive_and_compare<core::triangle_visitor>(
      core::order_tiebreak::vertex_locality, make_triangle, 11);
}

TEST(bucket_queue, wedge_matches_heap) {
  drive_and_compare<core::wedge_visitor>(
      core::order_tiebreak::vertex_locality, make_wedge, 12);
}

TEST(bucket_queue, bfs_validate_matches_heap) {
  drive_and_compare<core::bfs_validate_visitor>(
      core::order_tiebreak::vertex_locality, make_validate, 13);
}

/// Monotone drain after bulk load: the classic Dijkstra shape, including
/// far keys that start in the overflow heap and migrate in.
TEST(bucket_queue, bulk_load_then_full_drain) {
  std::mt19937_64 rng(99);
  core::bucket_queue<core::sssp_visitor> q(
      core::order_tiebreak::vertex_locality);
  for (int i = 0; i < 20000; ++i) {
    q.push({rand_locator(rng), rng() % (1u << 20), rng()});
  }
  std::uint64_t prev_d = 0;
  std::uint64_t prev_tie = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = q.top();
    q.pop();
    ASSERT_GE(v.distance, prev_d);
    if (v.distance == prev_d && i > 0) {
      ASSERT_GE(v.vertex.bits(), prev_tie);
    }
    prev_d = v.distance;
    prev_tie = v.vertex.bits();
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
