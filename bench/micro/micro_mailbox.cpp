/// \file micro_mailbox.cpp
/// Routed-mailbox microbenches: route+flush+unpack throughput of the
/// aggregation layer (mailbox/routed_mailbox.hpp), the local self-send
/// drain, and the raw record serialization round-trip.  All worlds are
/// driven from this single thread (endpoints are just inboxes), so the
/// numbers isolate framing/queue overhead from scheduling noise.
///
/// Records are 24 bytes — the size of a bfs_visitor, the dominant record
/// type in real traversals.
///
/// Every row runs with the data gate parked, as the library ships: the
/// suite's reporter arms metrics for its registry snapshot, so each row
/// parks the gate for its measured loop and re-arms it after, as
/// micro_comm_matrix's off row does.
#include <cstdint>
#include <cstring>
#include <span>

#include "mailbox/routed_mailbox.hpp"
#include "micro_harness.hpp"
#include "obs/metrics.hpp"
#include "runtime/comm.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

struct record24 {
  std::uint64_t a, b, c;
};

constexpr int kBatch = 64;
constexpr int kMailTag = 0;

/// Time one row of `kBatch` records per iteration with the data gate
/// parked for the measured loop.
template <typename Fn>
void run_gate_off(micro::suite& s, const char* name, Fn fn) {
  s.run(name, kBatch, [&fn](std::uint64_t iters) {
    obs::set_metrics_enabled(false);
    fn(iters);
    obs::set_metrics_enabled(true);
  });
}

/// Point-to-point: rank 0 sends a batch to rank 1, flushes, rank 1
/// unpacks.  The whole aggregation round trip for one packet.
void bench_route_flush_direct(micro::suite& s) {
  run_gate_off(s, "mailbox/route_flush/direct", [](std::uint64_t iters) {
    runtime::world w(2);
    auto& c0 = w.rank_comm(0);
    auto& c1 = w.rank_comm(1);
    mailbox::routed_mailbox m0(c0, {mailbox::topology::direct, 1 << 16,
                                    kMailTag});
    mailbox::routed_mailbox m1(c1, {mailbox::topology::direct, 1 << 16,
                                    kMailTag});
    record24 r{1, 2, 3};
    std::uint64_t sink = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        r.a = it + static_cast<std::uint64_t>(i);
        m0.send(1, runtime::as_bytes_of(r));
      }
      m0.flush();
      runtime::message msg;
      while (c1.try_recv(msg)) {
        sink += m1.process_packet(msg, [](int, std::span<const std::byte>) {});
      }
    }
    micro::keep(sink);
  });
}

/// 16 ranks on a 4x4 grid: rank 0 scatters a batch over all remote
/// destinations, then every rank pumps until delivery — includes the
/// intermediate-hop unpack/re-aggregate path of §III-B routing.
void bench_route_flush_grid(micro::suite& s) {
  run_gate_off(s, "mailbox/route_flush/grid2d16", [](std::uint64_t iters) {
    constexpr int kRanks = 16;
    runtime::world w(kRanks);
    std::vector<std::unique_ptr<mailbox::routed_mailbox>> mbs;
    for (int r = 0; r < kRanks; ++r) {
      mbs.push_back(std::make_unique<mailbox::routed_mailbox>(
          w.rank_comm(r),
          mailbox::routed_mailbox::config{mailbox::topology::grid2d, 1 << 16,
                                          kMailTag}));
    }
    std::uint64_t sink = 0;
    record24 r{1, 2, 3};
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        r.a = it + static_cast<std::uint64_t>(i);
        mbs[0]->send(1 + i % (kRanks - 1), runtime::as_bytes_of(r));
      }
      std::uint64_t delivered = 0;
      bool moved = true;
      while (delivered < kBatch && moved) {
        moved = false;
        for (int rk = 0; rk < kRanks; ++rk) {
          mbs[static_cast<std::size_t>(rk)]->flush();
          runtime::message msg;
          while (w.rank_comm(rk).try_recv(msg)) {
            delivered += mbs[static_cast<std::size_t>(rk)]->process_packet(
                msg, [](int, std::span<const std::byte>) {});
            moved = true;
          }
        }
      }
      sink += delivered;
    }
    micro::keep(sink);
  });
}

/// Self-sends: the local-delivery path (no comm) — route_record into the
/// pending area, drain with span handlers.  This is the per-record copy
/// hot spot the flat arena removes.
void bench_self_drain(micro::suite& s) {
  run_gate_off(s, "mailbox/self_drain", [](std::uint64_t iters) {
    runtime::world w(1);
    auto& c = w.rank_comm(0);
    mailbox::routed_mailbox mb(c, {mailbox::topology::direct, 1 << 16,
                                   kMailTag});
    record24 r{7, 8, 9};
    std::uint64_t sink = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        r.a = it + static_cast<std::uint64_t>(i);
        mb.send(0, runtime::as_bytes_of(r));
      }
      mb.drain_local([&sink](int, std::span<const std::byte> bytes) {
        std::uint64_t first;
        std::memcpy(&first, bytes.data(), sizeof(first));
        sink += first;
      });
    }
    micro::keep(sink);
  });
}

/// Raw record serialization round-trip: visitor -> bytes -> visitor, the
/// memcpy framing every delivered record pays on top of the mailbox.
void bench_serialize_roundtrip(micro::suite& s) {
  run_gate_off(s, "serialize/roundtrip", [](std::uint64_t iters) {
    alignas(record24) std::byte buf[kBatch * sizeof(record24)];
    std::uint64_t sink = 0;
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        const record24 r{it, static_cast<std::uint64_t>(i), it ^ 0x5aa5};
        const auto bytes = runtime::as_bytes_of(r);
        std::memcpy(buf + static_cast<std::size_t>(i) * sizeof(record24),
                    bytes.data(), bytes.size());
      }
      for (int i = 0; i < kBatch; ++i) {
        record24 out;
        std::memcpy(&out, buf + static_cast<std::size_t>(i) * sizeof(record24),
                    sizeof(out));
        sink += out.c;
      }
    }
    micro::keep(sink);
  });
}

}  // namespace

int main() {
  micro::suite s("micro_mailbox",
                 "routed mailbox route/flush/unpack, local drain, and "
                 "record serialization round-trip (24-byte records, "
                 "batches of 64)");
  bench_route_flush_direct(s);
  bench_route_flush_grid(s);
  bench_self_drain(s);
  bench_serialize_roundtrip(s);
  return 0;
}
