/// \file micro_frontier.cpp
/// Frontier hot-path microbenches (core/frontier.hpp): the per-level
/// rhythm of the level-synchronous BFS on its next-frontier bitmap — a
/// batch of claim inserts, then the clear that readies the bitmap for the
/// next level.  `sparse` inserts one vertex per 64 slots, `dense` one per
/// 4, so the clear's word fill weighs more in the sparse row.  This is
/// the loop tests/core/frontier_alloc_test.cpp pins as allocation-free,
/// so a regression here is a regression in every level of every
/// level-synchronous traversal.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/frontier.hpp"
#include "micro_harness.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

constexpr std::size_t kBits = 1u << 20;  // 1M local slots, a real rank's share

/// Pre-generated distinct slot indices, so the measured loop holds no rng.
std::vector<std::uint32_t> make_targets(std::size_t n, std::uint64_t seed) {
  util::xoshiro256 rng(seed);
  std::vector<std::uint32_t> t(n);
  for (auto& x : t) x = static_cast<std::uint32_t>(rng.uniform_below(kBits));
  return t;
}

}  // namespace

int main() {
  micro::suite s("micro_frontier",
                 "next-frontier bitmap at 2^20 bits: a batch of inserts "
                 "plus the clear, the per-level rhythm of the "
                 "level-synchronous BFS, at two frontier densities");

  const std::size_t sparse_n = kBits / 64;
  const std::size_t dense_n = kBits / 4;
  const auto sparse_targets = make_targets(sparse_n, 101);
  const auto dense_targets = make_targets(dense_n, 202);

  // clear() between batches is part of the real per-level rhythm, so it
  // stays inside the measured loop.
  s.run("frontier/insert/sparse", static_cast<double>(sparse_n),
        [&](std::uint64_t iters) {
          core::frontier f;
          f.resize(kBits);
          std::uint64_t sink = 0;
          for (std::uint64_t it = 0; it < iters; ++it) {
            for (const std::uint32_t i : sparse_targets) f.insert(i);
            sink += f.count();
            f.clear();
          }
          micro::keep(sink);
        });
  s.run("frontier/insert/dense", static_cast<double>(dense_n),
        [&](std::uint64_t iters) {
          core::frontier f;
          f.resize(kBits);
          std::uint64_t sink = 0;
          for (std::uint64_t it = 0; it < iters; ++it) {
            for (const std::uint32_t i : dense_targets) f.insert(i);
            sink += f.count();
            f.clear();
          }
          micro::keep(sink);
        });

  return 0;
}
