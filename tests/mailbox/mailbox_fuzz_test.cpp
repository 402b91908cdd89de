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
///   - Strided validation: seeded uniform, mixed-size, truncated,
///     bad-destination, bad-origin and stride-aliased payloads get the
///     same verdict, deliveries, forwards and sequence consumption from
///     process_packet as from a reference header-to-header walk.
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
#include <array>
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

/// One record of a hand-built packet, in wire order.
struct wire_frame {
  std::uint16_t final_dest;
  std::uint16_t origin;
  std::uint32_t size;  ///< the header's size field (may lie)
  std::vector<std::byte> body;
};

/// Serialize a packet: 16-byte header (seq, unstamped latency), then each
/// record's 8-byte header and body.
std::vector<std::byte> build_packet(std::uint64_t seq,
                                    const std::vector<wire_frame>& frames) {
  std::vector<std::byte> out(16);
  std::memcpy(out.data(), &seq, sizeof(seq));
  for (const auto& f : frames) {
    const std::size_t at = out.size();
    out.resize(at + 8 + f.body.size());
    std::memcpy(out.data() + at, &f.final_dest, 2);
    std::memcpy(out.data() + at + 2, &f.origin, 2);
    std::memcpy(out.data() + at + 4, &f.size, 4);
    if (!f.body.empty()) {
      std::memcpy(out.data() + at + 8, f.body.data(), f.body.size());
    }
  }
  return out;
}

struct walk_verdict {
  bool ok = false;
  std::vector<std::pair<int, std::vector<std::byte>>> delivered;
  std::uint64_t forwarded = 0;
};

/// The reference: walk from header to header, rejecting the packet whole
/// if any record overruns it or names a rank outside the world; only then
/// hand out the records addressed to `self` and count the rest.
walk_verdict reference_walk(const std::vector<std::byte>& payload, int p,
                            int self) {
  walk_verdict v;
  const auto num_ranks = static_cast<std::uint32_t>(p);
  std::vector<std::pair<std::size_t, std::array<std::uint32_t, 3>>> records;
  std::size_t off = 16;
  if (payload.size() < off) return v;
  while (off < payload.size()) {
    if (payload.size() - off < 8) return v;
    std::uint16_t dest = 0;
    std::uint16_t origin = 0;
    std::uint32_t size = 0;
    std::memcpy(&dest, payload.data() + off, 2);
    std::memcpy(&origin, payload.data() + off + 2, 2);
    std::memcpy(&size, payload.data() + off + 4, 4);
    off += 8;
    if (size > payload.size() - off || dest >= num_ranks ||
        origin >= num_ranks) {
      return v;
    }
    records.push_back({off, {dest, origin, size}});
    off += size;
  }
  v.ok = true;
  for (const auto& [at, h] : records) {
    if (static_cast<int>(h[0]) == self) {
      const auto* b = payload.data() + at;
      v.delivered.emplace_back(static_cast<int>(h[1]),
                               std::vector<std::byte>(b, b + h[2]));
    } else {
      ++v.forwarded;
    }
  }
  return v;
}

TEST(MailboxFuzz, StridedValidationMatchesReferenceWalk) {
  constexpr int kRanks = 4;
  constexpr int kSelf = 1;
  constexpr int kSource = 0;
  runtime::world w(kRanks);
  routed_mailbox mb(w.rank_comm(kSelf), {topology::direct, 1 << 16, kMailTag});
  util::chaos_stream cs(20261019, /*stream_id=*/0x57121du);
  const std::uint32_t sizes[] = {0, 1, 7, 8, 16, 24, 100};
  auto pick_size = [&] { return sizes[cs.below(std::size(sizes))]; };
  auto frame = [&](std::uint32_t size) {
    wire_frame f{static_cast<std::uint16_t>(cs.below(kRanks)),
                 static_cast<std::uint16_t>(cs.below(kRanks)), size, {}};
    f.body = pattern_record(size, cs.below(1u << 30));
    return f;
  };

  enum shape { uniform, mixed, truncated, bad_dest, bad_origin, aliased,
               lying, kShapes };
  std::uint64_t accepted = 0;
  for (std::uint64_t round = 0; round < 3000; ++round) {
    const auto kind = static_cast<shape>(round % kShapes);
    const std::uint64_t seq = round;
    std::vector<wire_frame> frames;
    const std::uint32_t a = pick_size();
    const std::uint32_t stride = 8 + a;
    const bool any_count = kind == uniform || kind == mixed ||
                           kind == truncated;
    const std::size_t n = any_count ? cs.below(40) : 2 + cs.below(30);
    for (std::size_t i = 0; i < n; ++i) {
      frames.push_back(frame(kind == mixed ? pick_size() : a));
    }
    const std::size_t k =
        frames.size() < 2 ? 0 : 1 + cs.below(frames.size() - 1);
    switch (kind) {
      case bad_dest:
        frames[k - cs.below(2)].final_dest =
            static_cast<std::uint16_t>(kRanks + cs.below(1000));
        break;
      case bad_origin:
        frames[k - cs.below(2)].origin =
            static_cast<std::uint16_t>(kRanks + cs.below(1000));
        break;
      case aliased:
        // The body stays a whole number of first-record strides, but the
        // k-th record spans j strides: valid, and only a walk reads it.
        frames[k] = frame(a + stride * static_cast<std::uint32_t>(
                                          1 + cs.below(3)));
        break;
      case lying:
        // Same body length, but the k-th header names another size: the
        // walk either overruns or misreads the headers after it.
        frames[k].size = static_cast<std::uint32_t>(
            cs.decide(0.5) ? a + stride * (1 + cs.below(2))
                           : (a + 1 + cs.below(stride)) % (2 * stride));
        if (frames[k].size == a) frames[k].size = a + stride;
        break;
      default:
        break;
    }
    auto payload = build_packet(seq, frames);
    if (kind == truncated && payload.size() > 16) {
      payload.resize(16 + cs.below(payload.size() - 16));
    }

    const walk_verdict want = reference_walk(payload, kRanks, kSelf);
    accepted += want.ok ? 1 : 0;
    const auto before = mb.stats();
    runtime::message m;
    m.source = kSource;
    m.tag = kMailTag;
    m.payload = payload;
    std::vector<std::pair<int, std::vector<std::byte>>> got;
    const std::size_t n_delivered = mb.process_packet(
        m, [&](int origin, std::span<const std::byte> bytes) {
          got.emplace_back(origin,
                           std::vector<std::byte>(bytes.begin(), bytes.end()));
        });
    const auto after = mb.stats();
    ASSERT_EQ(after.packets_rejected - before.packets_rejected,
              want.ok ? 0u : 1u)
        << "round " << round << " shape " << kind;
    ASSERT_EQ(got, want.delivered) << "round " << round << " shape " << kind;
    ASSERT_EQ(n_delivered, want.delivered.size());
    ASSERT_EQ(after.records_forwarded - before.records_forwarded,
              want.forwarded)
        << "round " << round << " shape " << kind;

    // A rejected packet leaves its seq unconsumed, so a header-only packet
    // with the same seq delivers; an accepted one makes it a duplicate.
    runtime::message probe;
    probe.source = kSource;
    probe.tag = kMailTag;
    probe.payload = build_packet(seq, {});
    mb.process_packet(probe, [](int, std::span<const std::byte>) {});
    ASSERT_EQ(mb.stats().packets_dropped_duplicate -
                  after.packets_dropped_duplicate,
              want.ok ? 1u : 0u)
        << "round " << round << " shape " << kind;
  }
  // Both verdicts were exercised: uniform, mixed and aliased packets are
  // all sound, bad-destination and bad-origin ones never are.
  EXPECT_GT(accepted, 3000u / 3);
  EXPECT_LT(accepted, 3000u * 2 / 3);
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
