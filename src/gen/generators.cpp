#include "gen/generators.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sfg::gen {

slice_range slice_for_rank(std::uint64_t total, int rank, int p) {
  const auto r = static_cast<std::uint64_t>(rank);
  const auto pp = static_cast<std::uint64_t>(p);
  const std::uint64_t base = total / pp;
  const std::uint64_t extra = total % pp;
  // The first `extra` ranks get base+1 edges.
  const std::uint64_t begin = r * base + (r < extra ? r : extra);
  const std::uint64_t count = base + (r < extra ? 1 : 0);
  return {begin, begin + count};
}

namespace {

/// A slice must lie inside the graph's edge ids [0, num_edges): edges past
/// the end belong to no graph, and begin > end names no range.
void check_slice(const char* model, std::uint64_t begin, std::uint64_t end,
                 std::uint64_t num_edges) {
  if (begin > end || end > num_edges) {
    throw std::out_of_range(std::string(model) + ": slice [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ") outside [0, " +
                            std::to_string(num_edges) + ")");
  }
}

}  // namespace

void symmetrize(std::vector<edge64>& edges) {
  const std::size_t n = edges.size();
  edges.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    edges.push_back({edges[i].dst, edges[i].src});
  }
}

// ---------------------------------------------------------------------------
// RMAT
// ---------------------------------------------------------------------------

namespace {

/// uniform_real() is m * 2^-53 for the 53-bit draw m = x >> 11, so
/// `uniform_real() >= t` holds exactly when m >= ceil(t * 2^53) (the
/// product is exact: a power-of-two scale).  A t of 1 or more, or NaN,
/// never holds (2^53 exceeds every m); a t of 0 or less always does.
std::uint64_t draw_threshold(double t) {
  constexpr std::uint64_t kNever = std::uint64_t{1} << 53;
  if (!(t < 1.0)) return kNever;
  if (t <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::ceil(t * 0x1p53));
}

/// The quadrant thresholds of one level's draw: src bit set at or above
/// a+b, dst bit set in [a, a+b) or at or above a+b+c.
struct rmat_thresholds {
  std::uint64_t a;
  std::uint64_t ab;
  std::uint64_t abc;
};

/// Edges [i, i + kLanes) of the RMAT edge list, unpermuted.  The lanes'
/// xoshiro streams are independent, so drawing them in lockstep overlaps
/// their dependency chains; every bit is a compare, with no branch.
template <std::size_t kLanes>
std::array<edge64, kLanes> rmat_lanes(std::uint64_t seed, unsigned scale,
                                      const rmat_thresholds& t,
                                      std::uint64_t i) {
  util::xoshiro256 rng[kLanes];
  for (std::size_t k = 0; k < kLanes; ++k) {
    rng[k] = util::make_stream(seed, i + k);
  }
  std::array<edge64, kLanes> out{};
  for (unsigned level = 0; level < scale; ++level) {
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::uint64_t m = rng[k]() >> 11;
      const std::uint64_t src_bit = m >= t.ab;
      const std::uint64_t dst_bit = ((m >= t.a) & (m < t.ab)) | (m >= t.abc);
      out[k].src = (out[k].src << 1) | src_bit;
      out[k].dst = (out[k].dst << 1) | dst_bit;
    }
  }
  return out;
}

}  // namespace

std::vector<edge64> rmat_slice(const rmat_config& cfg, std::uint64_t begin,
                               std::uint64_t end) {
  check_slice("rmat", begin, end, cfg.num_edges());
  const double ab = cfg.a + cfg.b;
  const double abc = ab + cfg.c;
  if (abc >= 1.0001) throw std::invalid_argument("rmat: a+b+c must be <= 1");

  // Quadrant choice per level: (0,0) with prob a, (0,1) b, (1,0) c,
  // (1,1) d, decided on the draw's integer bits.
  const rmat_thresholds t{draw_threshold(cfg.a), draw_threshold(ab),
                          draw_threshold(abc)};
  constexpr std::size_t kLanes = 4;
  std::vector<edge64> out;
  out.reserve(end - begin);
  std::uint64_t i = begin;
  for (; end - i >= kLanes; i += kLanes) {
    const auto lanes = rmat_lanes<kLanes>(cfg.seed, cfg.scale, t, i);
    out.insert(out.end(), lanes.begin(), lanes.end());
  }
  for (; i < end; ++i) {
    out.push_back(rmat_lanes<1>(cfg.seed, cfg.scale, t, i)[0]);
  }
  if (cfg.permute_labels) {
    const random_permutation perm(cfg.num_vertices(), cfg.seed ^ 0x9e37);
    for (auto& e : out) e = {perm(e.src), perm(e.dst)};
  }
  return out;
}

// ---------------------------------------------------------------------------
// Preferential attachment
// ---------------------------------------------------------------------------

namespace {

/// Resolve the target of PA edge `i` with the half-edge copy model:
/// draw r uniform over the 2i half-edges placed so far, plus one extra
/// outcome for a self-attachment.  Even r copies the (directly
/// computable) source endpoint of edge r/2; odd r copies the target of
/// edge r/2, which recurses — iteratively, with strictly decreasing i,
/// expected depth O(log i).
std::uint64_t pa_resolve_target(const pa_config& cfg, std::uint64_t i) {
  const std::uint64_t d = cfg.edges_per_vertex;
  for (;;) {
    auto rng = util::make_stream(cfg.seed, i);
    // Optional rewire replaces the whole chain with a uniform vertex.
    if (cfg.rewire > 0 && rng.uniform_real() < cfg.rewire) {
      return rng.uniform_below(cfg.num_vertices);
    }
    const std::uint64_t r = rng.uniform_below(2 * i + 1);
    if (r == 2 * i) return i / d;            // self-attachment
    if ((r & 1) == 0) return (r / 2) / d;    // source endpoint of edge r/2
    i = r / 2;                               // target endpoint: recurse
  }
}

}  // namespace

std::vector<edge64> pa_slice(const pa_config& cfg, std::uint64_t begin,
                             std::uint64_t end) {
  check_slice("pa", begin, end, cfg.num_edges());
  if (cfg.edges_per_vertex == 0) {
    throw std::invalid_argument("pa: edges_per_vertex must be > 0");
  }
  const random_permutation perm(cfg.num_vertices, cfg.seed ^ 0x517c);
  std::vector<edge64> out;
  out.reserve(end - begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    std::uint64_t src = i / cfg.edges_per_vertex;
    std::uint64_t dst = pa_resolve_target(cfg, i);
    if (cfg.permute_labels) {
      src = perm(src);
      dst = perm(dst);
    }
    out.push_back({src, dst});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Small world
// ---------------------------------------------------------------------------

std::vector<edge64> sw_slice(const sw_config& cfg, std::uint64_t begin,
                             std::uint64_t end) {
  check_slice("sw", begin, end, cfg.num_edges());
  if (cfg.degree % 2 != 0 || cfg.degree == 0) {
    throw std::invalid_argument("sw: degree must be even and > 0");
  }
  const std::uint64_t half = cfg.degree / 2;
  const random_permutation perm(cfg.num_vertices, cfg.seed ^ 0xb0a7);
  std::vector<edge64> out;
  out.reserve(end - begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    const std::uint64_t u = i / half;
    const std::uint64_t j = i % half + 1;  // ring offset 1..k/2
    std::uint64_t v = (u + j) % cfg.num_vertices;
    auto rng = util::make_stream(cfg.seed, i);
    if (cfg.rewire > 0 && rng.uniform_real() < cfg.rewire) {
      v = rng.uniform_below(cfg.num_vertices);
    }
    std::uint64_t src = u;
    std::uint64_t dst = v;
    if (cfg.permute_labels) {
      src = perm(src);
      dst = perm(dst);
    }
    out.push_back({src, dst});
  }
  return out;
}

}  // namespace sfg::gen
