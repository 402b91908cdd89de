/// Serialization fuzz tests for the routed mailbox's wire format and its
/// packet-sequence deduplication.
///
///   - Round trip: records of every interesting size — 0 bytes, one byte,
///     header-boundary sizes, and a 1 MiB oversized record that exceeds
///     the aggregation watermark on its own — survive framing, flushing
///     and unpacking byte for byte.
///   - Robustness: a structurally corrupt packet (truncated anywhere,
///     lying record length, a length with its top bit set, out-of-range
///     destination) is rejected whole, counted in
///     stats().packets_rejected, and — critically — does NOT consume its
///     sequence number, so an intact retransmission of the same packet
///     still delivers.
///   - Dedup equivalence: seq_window (the O(1) sliding-window structure
///     that replaced the per-source unordered_set of every seq ever seen)
///     gives verdicts identical to the reference set under seeded
///     reorder/duplication schedules, including displacements far beyond
///     its bitmap width.  Exactness is a termination-safety requirement: a
///     false drop loses records forever and the traversal livelocks.
///   - End to end: an all-to-all exchange over a faulty transport
///     (delay/reorder/duplicate schedules from the chaos harness) still
///     delivers every record exactly once.
#include "mailbox/routed_mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <unordered_set>
#include <vector>

#include "chaos/chaos_harness.hpp"
#include "mailbox/seq_window.hpp"
#include "runtime/runtime.hpp"
#include "util/chaos.hpp"

namespace sfg::mailbox {
namespace {

constexpr int kMailTag = 0;

std::vector<std::byte> pattern_record(std::size_t size, std::uint64_t salt) {
  std::vector<std::byte> r(size);
  for (std::size_t i = 0; i < size; ++i) {
    r[i] = static_cast<std::byte>(util::splitmix64(salt + i) & 0xff);
  }
  return r;
}

TEST(MailboxFuzz, RoundTripsEverySizeIncludingZeroAndOversized) {
  runtime::world w(2);
  auto& c0 = w.rank_comm(0);
  auto& c1 = w.rank_comm(1);
  routed_mailbox m0(c0, {topology::direct, 1 << 13, kMailTag});
  routed_mailbox m1(c1, {topology::direct, 1 << 13, kMailTag});

  // 1 MiB exceeds the aggregation watermark alone; 0 is a legal record.
  const std::size_t sizes[] = {0,  1,  7,   8,    9,    24,  255,
                               256, 4095, 4096, 1u << 20};
  std::vector<std::vector<std::byte>> sent;
  std::uint64_t salt = 1;
  for (const std::size_t n : sizes) {
    sent.push_back(pattern_record(n, salt++));
    m0.send(1, sent.back());
  }
  m0.flush();

  std::vector<std::vector<std::byte>> got;
  runtime::message m;
  while (c1.try_recv(m)) {
    m1.process_packet(m, [&](int origin, std::span<const std::byte> bytes) {
      EXPECT_EQ(origin, 0);
      got.emplace_back(bytes.begin(), bytes.end());
    });
  }
  ASSERT_EQ(got.size(), sent.size());
  // Aggregation preserves per-channel FIFO order, so compare in order.
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i], sent[i]) << "record " << i << " corrupted in transit";
  }

  // Self-delivery round-trips the same sizes through the local arena.
  std::vector<std::vector<std::byte>> self_got;
  for (const auto& r : sent) m1.send(1, r);
  m1.drain_local([&](int, std::span<const std::byte> bytes) {
    self_got.emplace_back(bytes.begin(), bytes.end());
  });
  EXPECT_EQ(self_got, sent);
}

/// Build a valid single-packet payload by running records through a real
/// mailbox and capturing what it puts on the wire.
std::vector<std::byte> capture_packet(std::uint64_t salt) {
  runtime::world w(2);
  auto& c0 = w.rank_comm(0);
  routed_mailbox m0(c0, {topology::direct, 1 << 16, kMailTag});
  for (const std::size_t n : {0u, 24u, 3u, 100u}) {
    const auto r = pattern_record(n, salt++);
    m0.send(1, r);
  }
  m0.flush();
  runtime::message m;
  EXPECT_TRUE(w.rank_comm(1).try_recv(m));
  return m.payload;
}

TEST(MailboxFuzz, TruncatedPacketsRejectedWithoutConsumingSeq) {
  const std::vector<std::byte> intact = capture_packet(99);
  runtime::world w(2);
  auto& c1 = w.rank_comm(1);
  routed_mailbox m1(c1, {topology::direct, 1 << 16, kMailTag});

  auto count_only = [](int, std::span<const std::byte>) {};

  // Every proper prefix shorter than the full packet is structurally
  // invalid here (the last record's bytes are missing) — except prefixes
  // that happen to end exactly on a record boundary, which form valid
  // shorter packets.  Stamp each crafted prefix with its own unique
  // sequence number so a boundary-valid prefix consumes *its* seq, never
  // the intact packet's seq 0.  Walk all cut points and assert no crash
  // and no delivery past a corrupt frame.
  std::uint64_t rejected = 0;
  for (std::size_t cut = 0; cut < intact.size(); ++cut) {
    runtime::message m;
    m.source = 0;
    m.tag = kMailTag;
    m.payload.assign(intact.begin(),
                     intact.begin() + static_cast<std::ptrdiff_t>(cut));
    if (cut >= sizeof(std::uint64_t)) {
      const std::uint64_t unique_seq = 1000 + cut;
      std::memcpy(m.payload.data(), &unique_seq, sizeof(unique_seq));
    }
    const auto before = m1.stats().packets_rejected;
    m1.process_packet(m, count_only);
    if (m1.stats().packets_rejected == before + 1) ++rejected;
  }
  // At minimum, every cut strictly inside a record header or body rejects
  // (only the handful of record-boundary cuts can pass validation).
  EXPECT_GT(rejected, intact.size() / 2);

  // A record header lying about its length (points past the end) rejects,
  // and so does a size with its top bit set: no bit of the size is a flag.
  // The first record is empty and the second 24 bytes long, so 2^31 + 24
  // would pass as three records if bit 31 flagged 8 extra header bytes.
  for (const std::uint32_t lying : {0x7fff'ffffu, 0x8000'0000u | 24u}) {
    runtime::message m;
    m.source = 0;
    m.tag = kMailTag;
    m.payload = intact;
    // First record header starts after the 16-byte packet header (seq +
    // latency stamp); its size field is the u32 at offset 16 + 4.
    std::memcpy(m.payload.data() + 20, &lying, sizeof(lying));
    const auto before = m1.stats().packets_rejected;
    EXPECT_EQ(m1.process_packet(m, count_only), 0u);
    EXPECT_EQ(m1.stats().packets_rejected, before + 1);
  }

  // A destination rank outside the world rejects.
  {
    runtime::message m;
    m.source = 0;
    m.tag = kMailTag;
    m.payload = intact;
    const std::uint16_t bad_dest = 9999;
    std::memcpy(m.payload.data() + 16, &bad_dest, sizeof(bad_dest));
    const auto before = m1.stats().packets_rejected;
    EXPECT_EQ(m1.process_packet(m, count_only), 0u);
    EXPECT_EQ(m1.stats().packets_rejected, before + 1);
  }

  // The rejected packets above all carried seq 0.  Because rejection
  // happens before dedup, the intact retransmission must still deliver.
  std::size_t delivered = 0;
  runtime::message m;
  m.source = 0;
  m.tag = kMailTag;
  m.payload = intact;
  delivered = m1.process_packet(
      m, [](int, std::span<const std::byte>) {});
  EXPECT_EQ(delivered, 4u) << "corrupt copies must not burn the sequence";

  // ...and a second intact copy is now a duplicate.
  EXPECT_EQ(m1.process_packet(m, [](int, std::span<const std::byte>) {}), 0u);
  EXPECT_EQ(m1.stats().packets_dropped_duplicate, 1u);
}

TEST(MailboxFuzz, SeqWindowMatchesReferenceSetUnderChaosSchedules) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::chaos_stream cs(seed, /*stream_id=*/0xDEDu);
    // Arrival schedule: in-order sequences 0..n, then duplicated with
    // probability 1/8 and displaced — usually within a transport-realistic
    // horizon, occasionally (1/64) by more than the bitmap width so the
    // window must slide over unseen sequences and remember them as holes.
    const std::uint64_t n = 2000 + cs.below(2000);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> arrivals;  // (pos, seq)
    std::uint64_t pos = 0;
    for (std::uint64_t s = 0; s < n; ++s) {
      const std::uint64_t copies = cs.decide(1.0 / 8.0) ? 2 : 1;
      for (std::uint64_t c = 0; c < copies; ++c) {
        const std::uint64_t displace =
            cs.decide(1.0 / 64.0) ? cs.below(6000) : cs.below(64);
        arrivals.emplace_back(pos + displace, s);
        ++pos;
      }
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });

    seq_window win;
    std::unordered_set<std::uint64_t> ref;
    std::uint64_t step = 0;
    for (const auto& [unused_pos, s] : arrivals) {
      const bool expect_first = ref.insert(s).second;
      ASSERT_EQ(win.first_time(s), expect_first)
          << "seed " << seed << " step " << step << " seq " << s
          << " (window base " << win.window_base() << ", holes "
          << win.holes() << ")";
      ++step;
    }
  }
}

TEST(MailboxFuzz, ExactlyOnceAllToAllUnderTransportFaults) {
  struct wire_record {
    std::uint32_t origin;
    std::uint32_t dest;
    std::uint64_t nonce;
  };
  chaos::sweep_config sweep;
  sweep.ranks = 4;
  sweep.num_seeds = 10;
  chaos::run_sweep(sweep, [](runtime::comm& c, const chaos::schedule& s) {
    routed_mailbox mb(c, {s.queue.topo, s.queue.aggregation_bytes, kMailTag});
    constexpr std::uint64_t kPerPair = 16;
    const int p = c.size();
    for (int d = 0; d < p; ++d) {
      for (std::uint64_t i = 0; i < kPerPair; ++i) {
        const wire_record r{static_cast<std::uint32_t>(c.rank()),
                            static_cast<std::uint32_t>(d), i};
        mb.send(d, runtime::as_bytes_of(r));
      }
    }
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> seen;
    auto handler = [&](int origin, std::span<const std::byte> bytes) {
      ASSERT_EQ(bytes.size(), sizeof(wire_record));
      wire_record r;
      std::memcpy(&r, bytes.data(), sizeof(r));
      EXPECT_EQ(static_cast<int>(r.origin), origin);
      EXPECT_EQ(static_cast<int>(r.dest), c.rank());
      ++seen[{r.origin, r.nonce}];
    };
    mb.flush();
    const auto total = static_cast<std::uint64_t>(p) * p * kPerPair;
    while (true) {
      mb.drain_local(handler);
      runtime::message m;
      while (c.try_recv(m)) {
        mb.process_packet(m, handler);
        mb.drain_local(handler);
      }
      mb.tick();
      mb.flush();
      const std::uint64_t delivered =
          c.all_reduce(mb.stats().records_delivered, std::plus<>());
      if (delivered == total) break;
    }
    // Exactly once: every (origin, nonce) pair present, none doubled.
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(p) * kPerPair);
    for (const auto& [key, count] : seen) {
      EXPECT_EQ(count, 1) << "record replayed through the dedup layer";
    }
  });
}

}  // namespace
}  // namespace sfg::mailbox
