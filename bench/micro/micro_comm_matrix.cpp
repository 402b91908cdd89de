/// \file micro_comm_matrix.cpp
/// Cost of the rank x rank traffic matrix on the routed-mailbox hot path
/// (mailbox/routed_mailbox.hpp).  Two configurations of the same
/// point-to-point route+flush+unpack loop as micro_mailbox:
///   - off:  data gate parked (the shipped default) — the matrix update
///           sites must cost one predictable branch each
///   - on:   data gate armed, as SFG_METRICS arms it: matrix rows updated
///           per record/flush, every packet stamped with its enqueue time
///           and the receiver reading the clock once per packet, plus the
///           gate's registry counters and phase timers
///
/// The suite's reporter arms the data gate for its registry snapshot, so
/// the off row parks it for the measured loop and re-arms it after.
#include <cstdint>
#include <span>

#include "mailbox/routed_mailbox.hpp"
#include "micro_harness.hpp"
#include "obs/metrics.hpp"
#include "runtime/comm.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

struct record24 {
  std::uint64_t a, b, c;
};

constexpr int kBatch = 64;
constexpr int kMailTag = 0;

/// One rep of the point-to-point aggregation round trip (identical to
/// micro_mailbox's route_flush/direct body, so both variants here are
/// directly comparable to that baseline number).
void pump_direct(std::uint64_t iters) {
  runtime::world w(2);
  auto& c0 = w.rank_comm(0);
  auto& c1 = w.rank_comm(1);
  mailbox::routed_mailbox m0(c0,
                             {mailbox::topology::direct, 1 << 16, kMailTag});
  mailbox::routed_mailbox m1(c1,
                             {mailbox::topology::direct, 1 << 16, kMailTag});
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
}

void bench_matrix_off(micro::suite& s) {
  s.run("mailbox/comm_matrix/off", kBatch, [](std::uint64_t iters) {
    obs::set_metrics_enabled(false);
    pump_direct(iters);
    obs::set_metrics_enabled(true);
  });
}

void bench_matrix_on(micro::suite& s) {
  s.run("mailbox/comm_matrix/on", kBatch, [](std::uint64_t iters) {
    obs::set_metrics_enabled(true);
    pump_direct(iters);
  });
}

}  // namespace

int main() {
  micro::suite s("micro_comm_matrix",
                 "routed-mailbox route+flush+unpack with the rank x rank "
                 "traffic matrix off and on");
  bench_matrix_off(s);
  bench_matrix_on(s);
  return 0;
}
