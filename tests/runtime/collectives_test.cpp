#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/comm.hpp"
#include "runtime/runtime.hpp"

namespace sfg::runtime {
namespace {

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, AllReduceSum) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    const int total = c.all_reduce(c.rank() + 1, std::plus<>());
    EXPECT_EQ(total, p * (p + 1) / 2);
  });
}

TEST_P(CollectivesP, AllReduceMax) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    const auto max = c.all_reduce(static_cast<std::uint64_t>(c.rank()),
                                  [](std::uint64_t a, std::uint64_t b) {
                                    return a > b ? a : b;
                                  });
    EXPECT_EQ(max, static_cast<std::uint64_t>(p - 1));
  });
}

TEST_P(CollectivesP, AllGather) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    const auto vals = c.all_gather(c.rank() * 2);
    ASSERT_EQ(vals.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(vals[static_cast<std::size_t>(r)], r * 2);
  });
}

TEST_P(CollectivesP, AllGatherV) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    // Rank r contributes r elements: [r, r, ..., r].
    std::vector<int> mine(static_cast<std::size_t>(c.rank()), c.rank());
    std::vector<std::size_t> counts;
    const auto all = c.all_gatherv(std::span<const int>(mine), &counts);
    ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
    std::size_t expected_total = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(counts[static_cast<std::size_t>(r)], static_cast<std::size_t>(r));
      expected_total += static_cast<std::size_t>(r);
    }
    ASSERT_EQ(all.size(), expected_total);
    std::size_t i = 0;
    for (int r = 0; r < p; ++r) {
      for (int k = 0; k < r; ++k) EXPECT_EQ(all[i++], r);
    }
  });
}

// all_gatherv_into refills a caller-owned buffer: the same rank-ordered
// concatenation and counts as all_gatherv, with the capacity kept, so a
// second gather that fits reuses the first one's allocation.
TEST_P(CollectivesP, AllGatherVIntoReusesTheBuffer) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    std::vector<int> out;
    std::vector<std::size_t> counts;
    for (const int round : {2, 1}) {
      // Rank r contributes round * (r + 1) copies of r * 10 + round.
      const std::vector<int> mine(
          static_cast<std::size_t>(round * (c.rank() + 1)),
          c.rank() * 10 + round);
      const int* before = out.data();
      c.all_gatherv_into(std::span<const int>(mine), out, &counts);
      if (round == 1) {
        EXPECT_EQ(out.data(), before);
      }
      EXPECT_EQ(out, c.all_gatherv(std::span<const int>(mine)));
      ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
      std::size_t i = 0;
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(counts[static_cast<std::size_t>(r)],
                  static_cast<std::size_t>(round * (r + 1)));
        for (std::size_t k = 0; k < counts[static_cast<std::size_t>(r)]; ++k) {
          EXPECT_EQ(out[i++], r * 10 + round);
        }
      }
      EXPECT_EQ(i, out.size());
    }
  });
}

TEST_P(CollectivesP, AllToAllV) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    // Rank s sends {s * 100 + d} repeated (d + 1) times to rank d.
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      outgoing[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(d + 1), c.rank() * 100 + d);
    }
    const auto incoming = c.all_to_allv(std::move(outgoing));
    ASSERT_EQ(incoming.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto& from_s = incoming[static_cast<std::size_t>(s)];
      ASSERT_EQ(from_s.size(), static_cast<std::size_t>(c.rank() + 1));
      for (const int v : from_s) EXPECT_EQ(v, s * 100 + c.rank());
    }
  });
}

// This rank's own run crosses the exchange by move: incoming[rank] is the
// buffer the caller filled, not a copy, and every other run still arrives
// intact while that buffer changes hands.
TEST_P(CollectivesP, AllToAllVMovesOwnRun) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    const auto me = static_cast<std::size_t>(c.rank());
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      outgoing[static_cast<std::size_t>(d)].assign(64, c.rank() * 100 + d);
    }
    const int* own = outgoing[me].data();
    const auto incoming = c.all_to_allv(std::move(outgoing));
    EXPECT_EQ(incoming[me].data(), own);
    for (int s = 0; s < p; ++s) {
      const auto& from_s = incoming[static_cast<std::size_t>(s)];
      ASSERT_EQ(from_s.size(), 64u);
      for (const int v : from_s) EXPECT_EQ(v, s * 100 + c.rank());
    }
  });
}

TEST_P(CollectivesP, ExscanSum) {
  const int p = GetParam();
  launch(p, [](comm& c) {
    // Everyone contributes (rank + 1); prefix over lower ranks.
    const int pre = c.exscan_sum(c.rank() + 1);
    EXPECT_EQ(pre, c.rank() * (c.rank() + 1) / 2);
  });
}

TEST_P(CollectivesP, Broadcast) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    for (int root = 0; root < p; ++root) {
      const std::uint64_t v =
          c.rank() == root ? 0xdead0000ULL + static_cast<std::uint64_t>(root) : 0;
      const auto out = c.broadcast(v, root);
      EXPECT_EQ(out, 0xdead0000ULL + static_cast<std::uint64_t>(root));
    }
  });
}

TEST_P(CollectivesP, BackToBackCollectivesDoNotInterfere) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    for (int iter = 0; iter < 50; ++iter) {
      const int sum = c.all_reduce(1, std::plus<>());
      EXPECT_EQ(sum, p);
      const auto g = c.all_gather(iter);
      for (const int v : g) EXPECT_EQ(v, iter);
    }
  });
}

TEST_P(CollectivesP, CollectivesCoexistWithP2P) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    // Interleave: send p2p, collective, then drain.
    const int dest = (c.rank() + 1) % p;
    c.send_value(dest, 1, c.rank());
    const int sum = c.all_reduce(c.rank(), std::plus<>());
    EXPECT_EQ(sum, p * (p - 1) / 2);
    message m;
    while (!c.try_recv(m)) {
    }
    EXPECT_EQ(m.as<int>(), (c.rank() + p - 1) % p);
    c.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

}  // namespace
}  // namespace sfg::runtime
