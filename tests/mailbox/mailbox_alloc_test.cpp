/// Zero-per-record-allocation tests for the mailbox hot path (DESIGN.md
/// §8).  The overhaul's central memory claim: once arenas are warm,
///
///   - self-send + drain_local performs NO heap allocation per record —
///     records append into a flat arena and are delivered as span views;
///   - the remote path allocates per *packet* (one arena re-reserve after
///     each move-flush, plus transport bookkeeping), never per record.
///
/// Counts allocations with the binary's counting operator new
/// (support/counting_new.hpp).
#include "mailbox/routed_mailbox.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"
#include "support/counting_new.hpp"

namespace sfg::mailbox {
namespace {

struct record24 {
  std::uint64_t a, b, c;
};

constexpr int kMailTag = 0;
constexpr int kRecordsPerRound = 64;

TEST(MailboxAlloc, LocalDrainSteadyStateAllocatesNothing) {
  runtime::world w(1);
  auto& c = w.rank_comm(0);
  routed_mailbox mb(c, {topology::direct, 1 << 16, kMailTag});
  record24 r{1, 2, 3};
  std::uint64_t sink = 0;
  auto round = [&] {
    for (int i = 0; i < kRecordsPerRound; ++i) {
      r.a = static_cast<std::uint64_t>(i);
      mb.send(0, runtime::as_bytes_of(r));
    }
    mb.drain_local([&](int, std::span<const std::byte> bytes) {
      sink += bytes.size();
    });
  };
  // Warm-up: the first rounds grow local_arena_ (and, via the mid-drain
  // swap, local_scratch_) to steady-state capacity.
  for (int i = 0; i < 4; ++i) round();

  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 256; ++i) round();
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u) << "self-send/drain hot path allocated on the heap";
  EXPECT_EQ(sink, static_cast<std::uint64_t>(260) * kRecordsPerRound *
                      sizeof(record24));
}

TEST(MailboxAlloc, RemotePathAllocatesPerPacketNotPerRecord) {
  runtime::world w(2);
  auto& c0 = w.rank_comm(0);
  auto& c1 = w.rank_comm(1);
  routed_mailbox m0(c0, {topology::direct, 1 << 16, kMailTag});
  routed_mailbox m1(c1, {topology::direct, 1 << 16, kMailTag});
  record24 r{1, 2, 3};
  std::uint64_t sink = 0;
  auto round = [&] {
    for (int i = 0; i < kRecordsPerRound; ++i) {
      r.a = static_cast<std::uint64_t>(i);
      m0.send(1, runtime::as_bytes_of(r));
    }
    m0.flush();
    runtime::message m;
    while (c1.try_recv(m)) {
      m1.process_packet(m, [&](int, std::span<const std::byte> bytes) {
        sink += bytes.size();
      });
    }
  };
  // Warm-up: lets the channel's reserve_hint converge on the real packet
  // size and the transport's inbox reach steady-state capacity.
  for (int i = 0; i < 8; ++i) round();

  constexpr int kRounds = 256;
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < kRounds; ++i) round();
  const std::uint64_t delta = test::allocations() - before;

  // One packet per round.  Flushing moves the arena into the transport, so
  // each round legitimately re-allocates the arena once, and the transport
  // may allocate a constant amount of bookkeeping per message.  What must
  // NOT happen is an allocation per record: with 64 records per packet, a
  // per-record regression multiplies the budget ~16x.
  const std::uint64_t budget = static_cast<std::uint64_t>(kRounds) * 8;
  EXPECT_LE(delta, budget)
      << "remote path allocation is scaling with records, not packets";
  EXPECT_GT(sink, 0u);
}

// The traffic matrix must not change either claim.  Its rows are
// preallocated at mailbox construction and the latency histogram is a
// fixed bucket array, so with the data gate on (matrix live, every packet
// latency-stamped) the steady-state budgets are the same as with it off.
class MailboxMatrixAlloc : public ::testing::Test {
 protected:
  void SetUp() override { obs::set_metrics_enabled(true); }
  void TearDown() override { obs::set_metrics_enabled(saved_); }

 private:
  const bool saved_ = obs::detail::any_on(obs::detail::kMetricsBit);
};

TEST_F(MailboxMatrixAlloc, LocalDrainStaysAllocationFree) {
  runtime::world w(1);
  auto& c = w.rank_comm(0);
  routed_mailbox mb(c, {topology::direct, 1 << 16, kMailTag});
  record24 r{1, 2, 3};
  std::uint64_t sink = 0;
  auto round = [&] {
    for (int i = 0; i < kRecordsPerRound; ++i) {
      r.a = static_cast<std::uint64_t>(i);
      mb.send(0, runtime::as_bytes_of(r));
    }
    mb.drain_local([&](int, std::span<const std::byte> bytes) {
      sink += bytes.size();
    });
  };
  for (int i = 0; i < 4; ++i) round();

  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 256; ++i) round();
  const std::uint64_t delta = test::allocations() - before;

  EXPECT_EQ(delta, 0u)
      << "traffic-matrix accounting allocated on the self-send hot path";
  EXPECT_GT(sink, 0u);
}

TEST_F(MailboxMatrixAlloc, RemotePathKeepsPerPacketBudget) {
  runtime::world w(2);
  auto& c0 = w.rank_comm(0);
  auto& c1 = w.rank_comm(1);
  routed_mailbox m0(c0, {topology::direct, 1 << 16, kMailTag});
  routed_mailbox m1(c1, {topology::direct, 1 << 16, kMailTag});
  record24 r{1, 2, 3};
  std::uint64_t sink = 0;
  auto round = [&] {
    for (int i = 0; i < kRecordsPerRound; ++i) {
      r.a = static_cast<std::uint64_t>(i);
      m0.send(1, runtime::as_bytes_of(r));
    }
    m0.flush();
    runtime::message m;
    while (c1.try_recv(m)) {
      m1.process_packet(m, [&](int, std::span<const std::byte> bytes) {
        sink += bytes.size();
      });
    }
  };
  for (int i = 0; i < 8; ++i) round();

  constexpr int kRounds = 256;
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < kRounds; ++i) round();
  const std::uint64_t delta = test::allocations() - before;

  // Same budget as the matrix-off remote test: matrix rows and the
  // latency histogram are preallocated, stamping reads a clock, and the
  // receive side indexes into existing vectors.
  const std::uint64_t budget = static_cast<std::uint64_t>(kRounds) * 8;
  EXPECT_LE(delta, budget)
      << "traffic-matrix accounting is allocating per packet or per record";
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace sfg::mailbox
