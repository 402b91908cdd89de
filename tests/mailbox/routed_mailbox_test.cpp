#include "mailbox/routed_mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "support/packet_flows.hpp"
#include "util/rng.hpp"

namespace sfg::mailbox {
namespace {

using runtime::launch;

constexpr int kMailTag = 0;

struct test_record {
  std::uint32_t origin;
  std::uint32_t dest;
  std::uint64_t seq;
  std::uint64_t checksum;
};

std::uint64_t expected_checksum(const test_record& r) {
  return util::splitmix64(r.origin ^ (static_cast<std::uint64_t>(r.dest) << 20) ^
                          (r.seq << 40));
}

/// Pump the comm inbox into the mailbox until globally all records are
/// delivered.  `expected_total` is the global record count.  With
/// `replay`, every packet is handed over twice, as a duplicating transport
/// would, and the second copy must deliver nothing.
void pump_until_all_delivered(runtime::comm& c, routed_mailbox& mb,
                              std::uint64_t expected_total,
                              std::vector<test_record>& received,
                              bool replay = false) {
  auto handler = [&](int origin, std::span<const std::byte> bytes) {
    ASSERT_EQ(bytes.size(), sizeof(test_record));
    test_record r;
    std::memcpy(&r, bytes.data(), sizeof(r));
    EXPECT_EQ(static_cast<int>(r.origin), origin);
    received.push_back(r);
  };
  mb.flush();
  // No termination detector here: poll until the global delivered count
  // reaches the expected total (checked via repeated all_reduce).
  while (true) {
    mb.drain_local(handler);
    runtime::message m;
    while (c.try_recv(m)) {
      mb.process_packet(m, handler);
      if (replay) {
        EXPECT_EQ(mb.process_packet(m, handler), 0u);
      }
      mb.drain_local(handler);
    }
    mb.flush();
    const std::uint64_t delivered = c.all_reduce(
        mb.stats().records_delivered, std::plus<>());
    if (delivered == expected_total) break;
  }
}

class MailboxP : public ::testing::TestWithParam<std::tuple<topology, int>> {};

TEST_P(MailboxP, AllToAllExactlyOnce) {
  const auto [topo, p] = GetParam();
  launch(p, [topo = topo, p = p](runtime::comm& c) {
    routed_mailbox mb(c, {topo, 1 << 13, kMailTag});
    // Every rank sends 3 records to every rank (including itself).
    constexpr int kPerPair = 3;
    for (int d = 0; d < p; ++d) {
      for (int s = 0; s < kPerPair; ++s) {
        test_record r{static_cast<std::uint32_t>(c.rank()),
                      static_cast<std::uint32_t>(d),
                      static_cast<std::uint64_t>(s), 0};
        r.checksum = expected_checksum(r);
        mb.send(d, runtime::as_bytes_of(r));
      }
    }
    std::vector<test_record> received;
    pump_until_all_delivered(
        c, mb, static_cast<std::uint64_t>(p) * p * kPerPair, received);

    // Exactly kPerPair records from each origin, uncorrupted.
    ASSERT_EQ(received.size(), static_cast<std::size_t>(p) * kPerPair);
    std::map<std::uint32_t, int> per_origin;
    for (const auto& r : received) {
      EXPECT_EQ(static_cast<int>(r.dest), c.rank());
      EXPECT_EQ(r.checksum, expected_checksum(r));
      per_origin[r.origin]++;
    }
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(per_origin[static_cast<std::uint32_t>(s)], kPerPair);
    }
    c.barrier();
  });
}

TEST_P(MailboxP, RandomTrafficPropertyTest) {
  const auto [topo, p] = GetParam();
  launch(p, [topo = topo, p = p](runtime::comm& c) {
    routed_mailbox mb(c, {topo, 256, kMailTag});  // tiny buffers: many packets
    auto rng = util::make_stream(99, static_cast<std::uint64_t>(c.rank()));
    constexpr int kRecords = 200;
    // Decide the global traffic matrix deterministically so every rank can
    // compute how much it should receive.
    std::uint64_t my_expected = 0;
    for (int src = 0; src < p; ++src) {
      auto gen = util::make_stream(7777, static_cast<std::uint64_t>(src));
      for (int i = 0; i < kRecords; ++i) {
        const auto dest = static_cast<int>(gen.uniform_below(
            static_cast<std::uint64_t>(p)));
        if (dest == c.rank()) ++my_expected;
        if (src == c.rank()) {
          test_record r{static_cast<std::uint32_t>(src),
                        static_cast<std::uint32_t>(dest),
                        static_cast<std::uint64_t>(i), 0};
          r.checksum = expected_checksum(r);
          mb.send(dest, runtime::as_bytes_of(r));
        }
      }
    }
    (void)rng;
    std::vector<test_record> received;
    pump_until_all_delivered(c, mb,
                             static_cast<std::uint64_t>(p) * kRecords,
                             received);
    EXPECT_EQ(received.size(), my_expected);
    for (const auto& r : received) {
      EXPECT_EQ(r.checksum, expected_checksum(r));
    }
    c.barrier();
  });
}

TEST_P(MailboxP, PacketFlowsOnePerHop) {
  // With tracing on, each packet a flush puts on the wire — one per
  // routing hop — opens one flow ('s') on its sender's row, and its next
  // hop closes it ('f') on its own row once, after dedup, although every
  // packet is handed over twice here.  Self-sends never leave the local
  // arena, so a lone rank draws no flow at all.
  const auto [topo, p] = GetParam();
  const bool saved_trace = obs::trace_on();
  obs::set_trace_enabled(true);
  obs::trace_clear();
  std::atomic<std::uint64_t> packets_sent{0};
  std::atomic<std::uint64_t> replays_dropped{0};
  launch(p, [&, topo = topo, p = p](runtime::comm& c) {
    routed_mailbox mb(c, {topo, 256, kMailTag});  // tiny buffers: many packets
    constexpr int kRecords = 64;
    auto gen = util::make_stream(4242, static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < kRecords; ++i) {
      const auto dest = static_cast<std::uint32_t>(
          gen.uniform_below(static_cast<std::uint64_t>(p)));
      test_record r{static_cast<std::uint32_t>(c.rank()), dest,
                    static_cast<std::uint64_t>(i), 0};
      r.checksum = expected_checksum(r);
      mb.send(static_cast<int>(dest), runtime::as_bytes_of(r));
    }
    std::vector<test_record> received;
    pump_until_all_delivered(c, mb, static_cast<std::uint64_t>(p) * kRecords,
                             received, /*replay=*/true);
    EXPECT_EQ(mb.stats().packets_rejected, 0u);
    packets_sent += mb.stats().packets_sent;
    replays_dropped += mb.stats().packets_dropped_duplicate;
    c.barrier();
  });
  EXPECT_EQ(obs::trace_dropped_count(), 0u);
  const auto flows = test::traced_packet_flows();
  obs::set_trace_enabled(saved_trace);
  obs::trace_clear();

  EXPECT_EQ(flows.size(), packets_sent.load()) << "one flow per packet";
  EXPECT_EQ(replays_dropped.load(), packets_sent.load())
      << "every packet arrived, and its replay was dropped";
  EXPECT_EQ(flows.empty(), p == 1);
  for (const auto& [id, fl] : flows) {
    EXPECT_EQ(fl.starts, 1) << "flow id " << id;
    EXPECT_EQ(fl.ends, 1) << "flow id " << id;
    EXPECT_NE(fl.start_pid, fl.end_pid) << "flow id " << id;
    EXPECT_GE(std::min(fl.start_pid, fl.end_pid), 0) << "flow id " << id;
    EXPECT_LT(std::max(fl.start_pid, fl.end_pid), p) << "flow id " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSizes, MailboxP,
    ::testing::Combine(::testing::Values(topology::direct, topology::grid2d,
                                         topology::torus3d),
                       ::testing::Values(1, 2, 4, 8, 12, 16)));

TEST(Mailbox, AggregationReducesPackets) {
  launch(4, [](runtime::comm& c) {
    routed_mailbox mb(c, {topology::direct, 1 << 16, kMailTag});
    // 100 records to one destination, all below the flush threshold:
    // exactly one packet once flushed.
    if (c.rank() == 0) {
      test_record r{0, 1, 0, 0};
      for (int i = 0; i < 100; ++i) {
        r.seq = static_cast<std::uint64_t>(i);
        r.checksum = expected_checksum(r);
        mb.send(1, runtime::as_bytes_of(r));
      }
      EXPECT_EQ(mb.stats().packets_sent, 0u);
      mb.flush();
      EXPECT_EQ(mb.stats().packets_sent, 1u);
      EXPECT_EQ(mb.stats().records_sent, 100u);
    }
    c.barrier();
  });
}

TEST(Mailbox, BufferFullTriggersAutoFlush) {
  launch(2, [](runtime::comm& c) {
    // Aggregation threshold smaller than two records: every send flushes.
    routed_mailbox mb(c, {topology::direct, sizeof(test_record), kMailTag});
    if (c.rank() == 0) {
      test_record r{0, 1, 0, 0};
      r.checksum = expected_checksum(r);
      mb.send(1, runtime::as_bytes_of(r));
      EXPECT_EQ(mb.stats().packets_sent, 1u);
      EXPECT_TRUE(mb.idle());
    }
    c.barrier();
  });
}

/// Records rank 0 sends to rank 1 until the channel flushes by size: the
/// channel's current watermark, counted in records.
int records_until_size_flush(routed_mailbox& mb) {
  const std::uint64_t before = mb.stats().flushes_by_size;
  const test_record r{0, 1, 0, 0};
  int n = 0;
  while (mb.stats().flushes_by_size == before) {
    mb.send(1, runtime::as_bytes_of(r));
    ++n;
  }
  return n;
}

/// One record to rank 1, aged out: kMaxAgeTicks ticks flush it.
void age_flush_one(routed_mailbox& mb) {
  const test_record r{0, 1, 0, 0};
  mb.send(1, runtime::as_bytes_of(r));
  for (std::uint32_t t = 0; t < routed_mailbox::kMaxAgeTicks; ++t) mb.tick();
}

TEST(Mailbox, AgeFlushAfterMaxAgeTicks) {
  launch(2, [](runtime::comm& c) {
    routed_mailbox mb(c, {topology::direct, 1 << 16, kMailTag});
    if (c.rank() == 0) {
      const test_record r{0, 1, 0, 0};
      mb.send(1, runtime::as_bytes_of(r));
      for (std::uint32_t t = 1; t < routed_mailbox::kMaxAgeTicks; ++t) {
        mb.tick();
      }
      EXPECT_EQ(mb.stats().packets_sent, 0u);
      EXPECT_FALSE(mb.idle());
      mb.tick();
      EXPECT_EQ(mb.stats().packets_sent, 1u);
      EXPECT_EQ(mb.stats().flushes_by_age, 1u);
      EXPECT_TRUE(mb.idle());
    }
    c.barrier();
  });
}

// Each age flush halves the channel's watermark, down to
// kMinAggregationBytes, or to aggregation_bytes when that is smaller; a
// size flush doubles it back.  The watermark shows as the records a send
// loop takes to trigger a size flush, compared with fresh mailboxes whose
// aggregation_bytes is the expected watermark.
TEST(Mailbox, AgeFlushesHalveTheWatermarkDownToTheFloor) {
  launch(2, [](runtime::comm& c) {
    constexpr std::size_t kAgg = 1 << 13;
    constexpr std::size_t kSmall = 128;  // below kMinAggregationBytes
    static_assert(kSmall < routed_mailbox::kMinAggregationBytes);
    routed_mailbox mb(c, {topology::direct, kAgg, kMailTag});
    routed_mailbox half(c, {topology::direct, kAgg / 2, kMailTag});
    routed_mailbox lowest(
        c, {topology::direct, routed_mailbox::kMinAggregationBytes, kMailTag});
    routed_mailbox small(c, {topology::direct, kSmall, kMailTag});
    if (c.rank() == 0) {
      const int at_half = records_until_size_flush(half);
      const int at_floor = records_until_size_flush(lowest);
      const int at_small = records_until_size_flush(small);
      EXPECT_LT(at_small, at_floor);
      EXPECT_LT(at_floor, at_half);

      age_flush_one(mb);
      EXPECT_EQ(records_until_size_flush(mb), at_half);
      // The size flush doubled it back to kAgg; five halvings reach the
      // floor (8 KiB -> 4 -> 2 -> 1 KiB -> 512 B) and the fifth stays.
      for (int i = 0; i < 5; ++i) age_flush_one(mb);
      EXPECT_EQ(mb.stats().flushes_by_age, 6u);
      EXPECT_EQ(records_until_size_flush(mb), at_floor);

      age_flush_one(small);
      EXPECT_EQ(small.stats().flushes_by_age, 1u);
      EXPECT_EQ(records_until_size_flush(small), at_small);
    }
    c.barrier();
  });
}

TEST(Mailbox, IdleReflectsBufferedState) {
  launch(2, [](runtime::comm& c) {
    routed_mailbox mb(c, {topology::direct, 1 << 16, kMailTag});
    EXPECT_TRUE(mb.idle());
    if (c.rank() == 0) {
      test_record r{0, 1, 0, 0};
      mb.send(1, runtime::as_bytes_of(r));
      EXPECT_FALSE(mb.idle());
      mb.flush();
      EXPECT_TRUE(mb.idle());
      // Self-send parks in the local queue: not idle until drained.
      mb.send(0, runtime::as_bytes_of(r));
      EXPECT_FALSE(mb.idle());
      mb.drain_local([](int, std::span<const std::byte>) {});
      EXPECT_TRUE(mb.idle());
    }
    c.barrier();
  });
}

TEST(Mailbox, ForwardingCountedAtIntermediateRank) {
  launch(16, [](runtime::comm& c) {
    routed_mailbox mb(c, {topology::grid2d, 64, kMailTag});
    // 11 -> 5 must transit 9 (paper Figure 4).
    if (c.rank() == 11) {
      test_record r{11, 5, 0, 0};
      r.checksum = expected_checksum(r);
      mb.send(5, runtime::as_bytes_of(r));
      mb.flush();
    }
    std::vector<test_record> received;
    pump_until_all_delivered(c, mb, 1, received);
    if (c.rank() == 9) {
      EXPECT_EQ(mb.stats().records_forwarded, 1u);
    } else {
      EXPECT_EQ(mb.stats().records_forwarded, 0u);
    }
    if (c.rank() == 5) {
      ASSERT_EQ(received.size(), 1u);
      EXPECT_EQ(received[0].origin, 11u);
    }
    c.barrier();
  });
}

TEST(Mailbox, SelfSendNeverTouchesNetwork) {
  launch(3, [](runtime::comm& c) {
    routed_mailbox mb(c, {topology::grid2d, 1 << 13, kMailTag});
    test_record r{static_cast<std::uint32_t>(c.rank()),
                  static_cast<std::uint32_t>(c.rank()), 7, 0};
    r.checksum = expected_checksum(r);
    mb.send(c.rank(), runtime::as_bytes_of(r));
    int got = 0;
    mb.drain_local([&](int origin, std::span<const std::byte> bytes) {
      test_record out;
      std::memcpy(&out, bytes.data(), sizeof(out));
      EXPECT_EQ(origin, c.rank());
      EXPECT_EQ(out.seq, 7u);
      ++got;
    });
    EXPECT_EQ(got, 1);
    EXPECT_EQ(mb.stats().packets_sent, 0u);
    EXPECT_EQ(c.stats().messages_sent, 0u);
    c.barrier();
  });
}

TEST(Mailbox, HandlerMaySendMoreRecords) {
  // A delivered record can trigger further sends from inside the handler
  // (exactly what visitors do).  Chain: 0 -> 1 -> 2 -> 3, ttl countdown.
  launch(4, [](runtime::comm& c) {
    routed_mailbox mb(c, {topology::direct, 64, kMailTag});
    std::uint64_t delivered_ttls = 0;
    auto handler = [&](int, std::span<const std::byte> bytes) {
      test_record r;
      std::memcpy(&r, bytes.data(), sizeof(r));
      delivered_ttls += r.seq;
      if (r.seq > 0) {
        test_record next{static_cast<std::uint32_t>(c.rank()),
                         static_cast<std::uint32_t>((c.rank() + 1) % 4),
                         r.seq - 1, 0};
        mb.send((c.rank() + 1) % 4, runtime::as_bytes_of(next));
        mb.flush();
      }
    };
    if (c.rank() == 0) {
      test_record r{0, 1, 6, 0};  // 6 hops of ttl
      mb.send(1, runtime::as_bytes_of(r));
      mb.flush();
    }
    while (true) {
      mb.drain_local(handler);
      runtime::message m;
      while (c.try_recv(m)) {
        mb.process_packet(m, handler);
        mb.drain_local(handler);
      }
      mb.flush();
      const auto total = c.all_reduce(mb.stats().records_delivered,
                                      std::plus<>());
      if (total == 7) break;  // ttl 6..0 inclusive
    }
    c.barrier();
  });
}

TEST(Mailbox, PacketFlowsPairFlushWithDelivery) {
  // With tracing on, a flush opens one flow per packet ('s') and the
  // receiver closes it ('f') once, after dedup: a replayed packet adds
  // nothing.  A second mailbox generation on the same world restarts its
  // seqs at 0, yet draws new ids.
  const bool saved_trace = obs::trace_on();
  obs::set_trace_enabled(true);
  obs::trace_clear();
  runtime::world w(2);
  auto& c0 = w.rank_comm(0);
  auto& c1 = w.rank_comm(1);
  const auto exchange = [&](int packets) {
    routed_mailbox m0(c0, {topology::direct, 1 << 16, kMailTag});
    routed_mailbox m1(c1, {topology::direct, 1 << 16, kMailTag});
    const auto ignore = [](int, std::span<const std::byte>) {};
    test_record r{0, 1, 0, 0};
    for (int i = 0; i < packets; ++i) {
      m0.send(1, runtime::as_bytes_of(r));
      m0.flush();
    }
    runtime::message m;
    while (c1.try_recv(m)) {
      m1.process_packet(m, ignore);
      m1.process_packet(m, ignore);  // a transport replay
    }
    EXPECT_EQ(m1.stats().packets_dropped_duplicate,
              static_cast<std::uint64_t>(packets));
  };
  exchange(3);
  exchange(2);

  const auto flows = test::traced_packet_flows();
  obs::set_trace_enabled(saved_trace);
  obs::trace_clear();
  EXPECT_EQ(flows.size(), 5u) << "one id per packet, across generations";
  for (const auto& [id, fl] : flows) {
    EXPECT_EQ(fl.starts, 1) << "flow id " << id;
    EXPECT_EQ(fl.ends, 1) << "flow id " << id;
  }
}

}  // namespace
}  // namespace sfg::mailbox
