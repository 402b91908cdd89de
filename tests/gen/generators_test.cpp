#include "gen/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sfg::gen {
namespace {

std::map<std::uint64_t, std::uint64_t> degree_counts(
    const std::vector<edge64>& edges) {
  std::map<std::uint64_t, std::uint64_t> deg;
  for (const auto& e : edges) {
    deg[e.src]++;
    deg[e.dst]++;
  }
  return deg;
}

std::uint64_t max_degree(const std::vector<edge64>& edges) {
  std::uint64_t best = 0;
  for (const auto& [v, d] : degree_counts(edges)) best = std::max(best, d);
  return best;
}

// ---------------------------------------------------------------------------
// Slicing determinism (all generators)
// ---------------------------------------------------------------------------

TEST(SliceForRank, CoversExactlyOnce) {
  for (const std::uint64_t total : {0ULL, 1ULL, 7ULL, 100ULL, 101ULL}) {
    for (const int p : {1, 2, 3, 7, 16}) {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (int r = 0; r < p; ++r) {
        const auto s = slice_for_rank(total, r, p);
        EXPECT_EQ(s.begin, prev_end);
        prev_end = s.end;
        covered += s.end - s.begin;
        // Balance: slice sizes differ by at most 1.
        EXPECT_LE(s.end - s.begin, total / p + 1);
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Generators, SlicesAreConsistentWithFullGeneration) {
  const rmat_config rc{.scale = 8, .edge_factor = 4, .seed = 3};
  const auto full = rmat_slice(rc, 0, rc.num_edges());
  for (const int p : {2, 3, 5}) {
    std::vector<edge64> stitched;
    for (int r = 0; r < p; ++r) {
      const auto s = slice_for_rank(rc.num_edges(), r, p);
      const auto part = rmat_slice(rc, s.begin, s.end);
      stitched.insert(stitched.end(), part.begin(), part.end());
    }
    EXPECT_EQ(stitched, full) << "p=" << p;
  }
}

TEST(Generators, PaAndSwSlicesStitchToo) {
  const pa_config pc{.num_vertices = 256, .edges_per_vertex = 4, .seed = 5};
  const auto pa_full = pa_slice(pc, 0, pc.num_edges());
  std::vector<edge64> stitched;
  for (int r = 0; r < 4; ++r) {
    const auto s = slice_for_rank(pc.num_edges(), r, 4);
    const auto part = pa_slice(pc, s.begin, s.end);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(stitched, pa_full);

  const sw_config sc{.num_vertices = 256, .degree = 8, .rewire = 0.2, .seed = 5};
  const auto sw_full = sw_slice(sc, 0, sc.num_edges());
  stitched.clear();
  for (int r = 0; r < 3; ++r) {
    const auto s = slice_for_rank(sc.num_edges(), r, 3);
    const auto part = sw_slice(sc, s.begin, s.end);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  EXPECT_EQ(stitched, sw_full);
}

// A slice reaching past the last edge, or with begin > end, throws before
// any edge is made, in every build type; the whole list and an empty
// slice at its end do not.
TEST(Generators, SliceOutsideTheGraphThrows) {
  const rmat_config rc{.scale = 6, .edge_factor = 4, .seed = 3};
  const pa_config pc{.num_vertices = 64, .edges_per_vertex = 4, .seed = 5};
  const sw_config sc{.num_vertices = 64, .degree = 8, .seed = 5};
  const auto check = [](const auto& cfg, auto slice) {
    const std::uint64_t n = cfg.num_edges();
    EXPECT_THROW(slice(cfg, 0, n + 1), std::out_of_range);
    EXPECT_THROW(slice(cfg, n - 1, n + 1), std::out_of_range);
    EXPECT_THROW(slice(cfg, 11, 10), std::out_of_range);
    EXPECT_THROW(slice(cfg, n + 1, n), std::out_of_range);
    EXPECT_EQ(slice(cfg, 0, n).size(), n);
    EXPECT_TRUE(slice(cfg, n, n).empty());
  };
  check(rc, [](const rmat_config& c, std::uint64_t b, std::uint64_t e) {
    return rmat_slice(c, b, e);
  });
  check(pc, [](const pa_config& c, std::uint64_t b, std::uint64_t e) {
    return pa_slice(c, b, e);
  });
  check(sc, [](const sw_config& c, std::uint64_t b, std::uint64_t e) {
    return sw_slice(c, b, e);
  });
}

// ---------------------------------------------------------------------------
// RMAT properties
// ---------------------------------------------------------------------------

TEST(Rmat, VertexIdsInRange) {
  const rmat_config cfg{.scale = 10, .edge_factor = 8, .seed = 1};
  const auto edges = rmat_slice(cfg, 0, cfg.num_edges());
  EXPECT_EQ(edges.size(), cfg.num_edges());
  for (const auto& e : edges) {
    EXPECT_LT(e.src, cfg.num_vertices());
    EXPECT_LT(e.dst, cfg.num_vertices());
  }
}

TEST(Rmat, IsScaleFreeIsh) {
  // Max degree far exceeds the mean: the hub property driving the paper.
  rmat_config cfg{.scale = 12, .edge_factor = 16, .seed = 1};
  const auto edges = rmat_slice(cfg, 0, cfg.num_edges());
  const auto deg = degree_counts(edges);
  const double mean_degree =
      2.0 * static_cast<double>(edges.size()) / static_cast<double>(cfg.num_vertices());
  std::uint64_t max_deg = 0;
  for (const auto& [v, d] : deg) max_deg = std::max(max_deg, d);
  EXPECT_GT(static_cast<double>(max_deg), 10.0 * mean_degree);
}

TEST(Rmat, HubGrowthWithScale) {
  // Paper Figure 1: the max-degree hub grows superlinearly with scale.
  std::uint64_t prev_max = 0;
  for (const unsigned scale : {8u, 10u, 12u}) {
    rmat_config cfg{.scale = scale, .edge_factor = 16, .seed = 2};
    const auto edges = rmat_slice(cfg, 0, cfg.num_edges());
    const auto m = max_degree(edges);
    EXPECT_GT(m, prev_max);
    prev_max = m;
  }
}

TEST(Rmat, PermutationDestroysLocalityButKeepsDegrees) {
  rmat_config plain{.scale = 9, .edge_factor = 8, .seed = 4,
                    .permute_labels = false};
  rmat_config permuted = plain;
  permuted.permute_labels = true;
  const auto e1 = rmat_slice(plain, 0, plain.num_edges());
  const auto e2 = rmat_slice(permuted, 0, permuted.num_edges());
  // Degree *distributions* (multisets) must be identical.
  auto d1 = degree_counts(e1);
  auto d2 = degree_counts(e2);
  std::vector<std::uint64_t> v1;
  std::vector<std::uint64_t> v2;
  for (const auto& [v, d] : d1) v1.push_back(d);
  for (const auto& [v, d] : d2) v2.push_back(d);
  std::sort(v1.begin(), v1.end());
  std::sort(v2.begin(), v2.end());
  EXPECT_EQ(v1, v2);
  // But the labeling differs.
  EXPECT_NE(e1, e2);
}

TEST(Rmat, RejectsBadProbabilities) {
  rmat_config cfg{.scale = 4, .a = 0.8, .b = 0.2, .c = 0.2};
  EXPECT_THROW(rmat_slice(cfg, 0, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RMAT output pinned: golden folds and a double-compare reference
// ---------------------------------------------------------------------------

/// Order-sensitive fold of every edge of a list.
std::uint64_t fold(const std::vector<edge64>& edges) {
  std::uint64_t h = 0;
  for (const auto& e : edges) {
    h = util::splitmix64(h + e.src);
    h = util::splitmix64(h + e.dst);
  }
  return h;
}

/// A d-heavy skew (a 0.30, b 0.10, c 0.05, d 0.55) whose thresholds a,
/// a+b and a+b+c each lie half a 2^-53 step above a draw of seed 1's
/// scale-12 edge list.  A draw can only decide differently under a
/// threshold rounded the wrong way when it sits right below the
/// threshold, and only below 0.5, where a double need not be a whole
/// number of 2^-53 steps; the default thresholds (0.57, 0.76, 0.95) are
/// whole numbers of steps and cannot tell.
constexpr double kSkewA = 0x1.33331cb1b980bp-2;
constexpr double kSkewB = 0x1.9999e2418b1fp-4;
constexpr double kSkewC = 0x1.999abc43f64fp-5;

TEST(Rmat, GoldenEdgeLists) {
  // Folds of the edge lists the double-compare generator made; any change
  // to one generated edge changes its fold.
  const rmat_config def1{.scale = 12, .seed = 1};
  const rmat_config def7919{.scale = 12, .seed = 7919};
  rmat_config skew1 = def1;
  skew1.a = kSkewA;
  skew1.b = kSkewB;
  skew1.c = kSkewC;
  rmat_config skew7919 = skew1;
  skew7919.seed = 7919;
  const std::uint64_t all = def1.num_edges();
  struct golden {
    const rmat_config* cfg;
    std::uint64_t begin;
    std::uint64_t end;
    std::uint64_t fold;
  };
  const golden cases[] = {
      {&def1, 0, all, 0x0634805586b819cbULL},
      {&def7919, 0, all, 0xe1ffaa3aebd5abbfULL},
      {&skew1, 0, all, 0x1cfc94b7fbd79ed6ULL},
      {&skew7919, 0, all, 0x02c040094f946617ULL},
      {&def1, 5, 1027, 0xbfdf79fa2de3e397ULL},
      {&skew7919, 5, 1027, 0xf8afe75a6f83245aULL},
      {&def7919, 0, 3, 0x7ce75e5e62d94057ULL},
      {&skew1, 0, 3, 0xba01e434442c3629ULL},
  };
  for (const auto& g : cases) {
    const auto edges = rmat_slice(*g.cfg, g.begin, g.end);
    EXPECT_EQ(edges.size(), g.end - g.begin);
    EXPECT_EQ(fold(edges), g.fold)
        << "seed " << g.cfg->seed << " a=" << g.cfg->a << " [" << g.begin
        << ", " << g.end << ")";
  }
}

TEST(Rmat, SkewedGoldenThresholdsSitOnDraws) {
  // The premise of the skewed golden case: for each threshold t, t * 2^53
  // is m + 1/2 for a draw m that seed 1's scale-12 edge list makes.
  const double ab = kSkewA + kSkewB;
  const double thresholds[] = {kSkewA, ab, ab + kSkewC};
  std::vector<std::uint64_t> below;
  for (const double t : thresholds) {
    const double scaled = t * 0x1p53;
    ASSERT_EQ(scaled - std::floor(scaled), 0.5) << t;
    below.push_back(static_cast<std::uint64_t>(scaled));
  }
  const rmat_config cfg{.scale = 12, .seed = 1};
  std::vector<bool> seen(below.size(), false);
  for (std::uint64_t i = 0; i < cfg.num_edges(); ++i) {
    auto rng = util::make_stream(cfg.seed, i);
    for (unsigned level = 0; level < cfg.scale; ++level) {
      const std::uint64_t m = rng() >> 11;
      for (std::size_t k = 0; k < below.size(); ++k) {
        if (m == below[k]) seen[k] = true;
      }
    }
  }
  for (std::size_t k = 0; k < below.size(); ++k) {
    EXPECT_TRUE(seen[k]) << "threshold " << thresholds[k];
  }
}

/// The generator's definition, one double compare per level (Graph500):
/// a uniform draw r picks quadrant (0,0) below a, (0,1) below a+b, (1,0)
/// below a+b+c and (1,1) above.
std::vector<edge64> rmat_reference(const rmat_config& cfg,
                                   std::uint64_t begin, std::uint64_t end) {
  const double ab = cfg.a + cfg.b;
  const double abc = ab + cfg.c;
  const random_permutation perm(cfg.num_vertices(), cfg.seed ^ 0x9e37);
  std::vector<edge64> out;
  for (std::uint64_t i = begin; i < end; ++i) {
    auto rng = util::make_stream(cfg.seed, i);
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    for (unsigned level = 0; level < cfg.scale; ++level) {
      const double r = rng.uniform_real();
      src = (src << 1) | (r >= ab ? 1 : 0);
      dst = (dst << 1) | ((r >= cfg.a && r < ab) || r >= abc ? 1 : 0);
    }
    if (cfg.permute_labels) {
      src = perm(src);
      dst = perm(dst);
    }
    out.push_back({src, dst});
  }
  return out;
}

/// (a, b, c) whose thresholds lie half a 2^-53 step above three distinct
/// draws below 0.5 that edges [begin, end) make (as kSkewA..C do for the
/// golden list), or nothing if the slice makes fewer than three.
std::optional<std::array<double, 3>> thresholds_on_draws(
    const rmat_config& cfg, std::uint64_t begin, std::uint64_t end,
    util::xoshiro256& pick) {
  std::vector<std::uint64_t> low;
  for (std::uint64_t i = begin; i < end; ++i) {
    auto rng = util::make_stream(cfg.seed, i);
    for (unsigned level = 0; level < cfg.scale; ++level) {
      const std::uint64_t m = rng() >> 11;
      if (m < (std::uint64_t{1} << 52)) low.push_back(m);
    }
  }
  std::sort(low.begin(), low.end());
  low.erase(std::unique(low.begin(), low.end()), low.end());
  const std::size_t n = low.size();
  if (n < 3) return std::nullopt;
  const std::size_t i0 = pick.uniform_below(n - 2);
  const std::size_t i1 = i0 + 1 + pick.uniform_below(n - i0 - 2);
  const std::size_t i2 = i1 + 1 + pick.uniform_below(n - i1 - 1);
  const std::uint64_t m[] = {low[i0], low[i1], low[i2]};
  // Exact: every value is an odd multiple of 2^-54 below 0.5, or a whole
  // number of 2^-53 steps, within 53 significant bits.
  return std::array<double, 3>{
      static_cast<double>(2 * m[0] + 1) * 0x1p-54,
      static_cast<double>(m[1] - m[0]) * 0x1p-53,
      static_cast<double>(m[2] - m[1]) * 0x1p-53};
}

TEST(Rmat, MatchesDoubleCompareReference) {
  // Random slices (any alignment and length against the interleave width)
  // at scales 1-20, under random (a, b, c), the edge cases a = 0, b = 0
  // and a + b + c = 1, the default, and thresholds sitting on draws.
  auto pick = util::make_stream(2026, 0);
  for (unsigned scale = 1; scale <= 20; ++scale) {
    rmat_config base{.scale = scale,
                     .seed = 100 + scale,
                     .permute_labels = scale % 2 == 0};
    const std::uint64_t len =
        1 + pick.uniform_below(std::min<std::uint64_t>(base.num_edges(), 257));
    const std::uint64_t begin =
        pick.uniform_below(base.num_edges() - len + 1);
    std::array<double, 3> cuts{pick.uniform_real(), pick.uniform_real(),
                               pick.uniform_real()};
    std::sort(cuts.begin(), cuts.end());
    const double a = cuts[0];
    const double b = cuts[1] - cuts[0];
    const double c = cuts[2] - cuts[1];
    std::vector<std::array<double, 3>> probs = {
        {a, b, c},       {0.0, b, c},         {a, 0.0, c},
        {0.0, 0.0, c},   {a, b, 1.0 - a - b}, {0.57, 0.19, 0.19},
    };
    if (const auto on = thresholds_on_draws(base, begin, begin + len, pick)) {
      probs.push_back(*on);
    }
    for (const auto& [pa, pb, pc] : probs) {
      rmat_config cfg = base;
      cfg.a = pa;
      cfg.b = pb;
      cfg.c = pc;
      EXPECT_EQ(rmat_slice(cfg, begin, begin + len),
                rmat_reference(cfg, begin, begin + len))
          << "scale " << scale << " [" << begin << ", " << begin + len
          << ") a=" << pa << " b=" << pb << " c=" << pc;
    }
  }
}

// ---------------------------------------------------------------------------
// Preferential attachment properties
// ---------------------------------------------------------------------------

TEST(Pa, VertexIdsInRangeAndSourcesCorrect) {
  pa_config cfg{.num_vertices = 512, .edges_per_vertex = 4, .seed = 1,
                .permute_labels = false};
  const auto edges = pa_slice(cfg, 0, cfg.num_edges());
  EXPECT_EQ(edges.size(), cfg.num_edges());
  for (std::uint64_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i].src, i / cfg.edges_per_vertex);
    EXPECT_LT(edges[i].dst, cfg.num_vertices);
    // Copy model can only attach to vertices no newer than the source.
    EXPECT_LE(edges[i].dst, edges[i].src);
  }
}

TEST(Pa, ProducesHubs) {
  pa_config cfg{.num_vertices = 1 << 12, .edges_per_vertex = 8, .seed = 1};
  const auto edges = pa_slice(cfg, 0, cfg.num_edges());
  const double mean = 2.0 * static_cast<double>(edges.size()) /
                      static_cast<double>(cfg.num_vertices);
  EXPECT_GT(static_cast<double>(max_degree(edges)), 8.0 * mean);
}

TEST(Pa, RewireShrinksMaxDegree) {
  // Paper Figure 11's x-axis mechanism: more rewiring, smaller hubs.
  std::uint64_t prev = UINT64_MAX;
  for (const double rewire : {0.0, 0.5, 1.0}) {
    pa_config cfg{.num_vertices = 1 << 12, .edges_per_vertex = 8,
                  .rewire = rewire, .seed = 3};
    const auto edges = pa_slice(cfg, 0, cfg.num_edges());
    const auto m = max_degree(edges);
    EXPECT_LT(m, prev) << "rewire=" << rewire;
    prev = m;
  }
}

TEST(Pa, FullRewireIsNearUniform) {
  pa_config cfg{.num_vertices = 1 << 10, .edges_per_vertex = 8, .rewire = 1.0,
                .seed = 9};
  const auto edges = pa_slice(cfg, 0, cfg.num_edges());
  // Max degree of a random graph with mean 16 stays within a small factor.
  EXPECT_LT(max_degree(edges), 64u);
}

// ---------------------------------------------------------------------------
// Small world properties
// ---------------------------------------------------------------------------

TEST(Sw, ZeroRewireIsExactRing) {
  sw_config cfg{.num_vertices = 64, .degree = 6, .rewire = 0.0, .seed = 1,
                .permute_labels = false};
  const auto edges = sw_slice(cfg, 0, cfg.num_edges());
  EXPECT_EQ(edges.size(), 64u * 3u);
  for (const auto& e : edges) {
    const std::uint64_t fwd = (e.dst + 64 - e.src) % 64;
    EXPECT_GE(fwd, 1u);
    EXPECT_LE(fwd, 3u);
  }
  // Uniform degree: every vertex has out-degree exactly k/2 and in-degree
  // exactly k/2.
  const auto deg = degree_counts(edges);
  for (const auto& [v, d] : deg) EXPECT_EQ(d, 6u);
}

TEST(Sw, RewireKeepsUniformOutDegree) {
  sw_config cfg{.num_vertices = 256, .degree = 8, .rewire = 0.3, .seed = 2,
                .permute_labels = false};
  const auto edges = sw_slice(cfg, 0, cfg.num_edges());
  std::map<std::uint64_t, int> out_deg;
  for (const auto& e : edges) out_deg[e.src]++;
  for (const auto& [v, d] : out_deg) EXPECT_EQ(d, 4);
  EXPECT_EQ(out_deg.size(), 256u);
}

TEST(Sw, RewireMovesEdgesOffRing) {
  sw_config ring{.num_vertices = 512, .degree = 8, .rewire = 0.0, .seed = 3,
                 .permute_labels = false};
  sw_config wired = ring;
  wired.rewire = 0.5;
  const auto e_wired = sw_slice(wired, 0, wired.num_edges());
  int off_ring = 0;
  for (const auto& e : e_wired) {
    const std::uint64_t fwd = (e.dst + 512 - e.src) % 512;
    if (fwd == 0 || fwd > 4) ++off_ring;
  }
  const double frac = static_cast<double>(off_ring) /
                      static_cast<double>(e_wired.size());
  // ~50% rewired, nearly all land off the ring.
  EXPECT_NEAR(frac, 0.5, 0.06);
}

TEST(Sw, OddDegreeThrows) {
  sw_config cfg{.num_vertices = 16, .degree = 3};
  EXPECT_THROW(sw_slice(cfg, 0, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// symmetrize
// ---------------------------------------------------------------------------

TEST(Symmetrize, AppendsReversedEdges) {
  std::vector<edge64> edges{{1, 2}, {3, 4}};
  symmetrize(edges);
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[2], (edge64{2, 1}));
  EXPECT_EQ(edges[3], (edge64{4, 3}));
}

}  // namespace
}  // namespace sfg::gen
