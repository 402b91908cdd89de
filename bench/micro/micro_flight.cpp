/// \file micro_flight.cpp
/// Flight-recorder microbenches: the recorder is ON by default in
/// production, so its steady-state record cost is a first-class hot-path
/// number; the disabled path must collapse to a single predictable
/// branch.  Batches of 64 events match the other micro suites.
#include <cstdint>

#include "micro_harness.hpp"
#include "obs/flight.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

constexpr int kBatch = 64;

/// Steady-state recording: ring + thread cache warm, 4 relaxed stores and
/// one relaxed fetch_add per event.
void bench_record_on(micro::suite& s) {
  s.run("flight/record/on", kBatch, [](std::uint64_t iters) {
    obs::set_flight_enabled(true);
    obs::flight_record(obs::flight_kind::queue_batch);  // warm ring + cache
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        obs::flight_record(obs::flight_kind::queue_batch,
                           it + static_cast<std::uint64_t>(i), 42);
      }
    }
    micro::keep(obs::flight_recorded_here());
    obs::flight_clear();
  });
}

/// The disabled gate: one relaxed load + branch per call site.
void bench_record_off(micro::suite& s) {
  s.run("flight/record/off", kBatch, [](std::uint64_t iters) {
    obs::set_flight_enabled(false);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        obs::flight_record(obs::flight_kind::queue_batch,
                           it + static_cast<std::uint64_t>(i), 42);
      }
    }
    obs::set_flight_enabled(true);
    micro::keep(iters);
  });
}

}  // namespace

int main() {
  micro::suite s("micro_flight",
                 "flight recorder record cost (enabled steady state and "
                 "disabled gate, batches of 64)");
  bench_record_on(s);
  bench_record_off(s);
  return 0;
}
