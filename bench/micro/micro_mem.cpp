/// \file micro_mem.cpp
/// Memory-attribution microbenches (obs/mem.hpp).  mem_tracker::set sits
/// on frontier resize, queue push/pop, page-cache fill, and the mailbox
/// record paths, so the *disabled* cost (data gate off, no budget — the
/// shipped default) is the number CI gates hardest: one relaxed load + compare,
/// no slot resolution.  The enabled steady state (two atomic adds + a
/// CAS-max on the cached slot) and the armed-budget shape (the same plus
/// the ladder evaluation against the process total) are tracked so a
/// lock or allocation sneaking into the charge path shows up as a cliff.
#include <cstdint>

#include "micro_harness.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

constexpr int kBatch = 64;

/// Gate off: set() on a never-charged tracker is a relaxed load and a
/// branch; nothing else may run.
void bench_set_off(micro::suite& s) {
  s.run("mem/set/off", kBatch, [](std::uint64_t iters) {
    // The data gate arms mem_on(), so the harness's live metrics must be
    // parked to measure the true shipped-default gate.
    obs::set_metrics_enabled(false);
    obs::mem_tracker t(obs::mem_subsystem::frontier);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        t.set(static_cast<std::uint64_t>(i) * 4096);
      }
    }
    micro::keep(t.charged());
    obs::set_metrics_enabled(true);
  });
}

/// Enabled steady state: every set() moves the charge, so the cost is
/// the slot adjust (two relaxed adds, two CAS-max loops, process total).
void bench_set_on(micro::suite& s) {
  s.run("mem/set/on", kBatch, [](std::uint64_t iters) {
    obs::set_metrics_enabled(true);
    obs::mem_tracker t(obs::mem_subsystem::frontier);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        t.set(static_cast<std::uint64_t>(i % 7 + 1) * 4096);
      }
    }
    micro::keep(t.charged());
    t.set(0);
    obs::mem_clear();
  });
}

/// Same-value set(): the quantized call sites (local_queue, partitioner)
/// hit this shape most of the time — must collapse to a compare.
void bench_set_same(micro::suite& s) {
  s.run("mem/set/same", kBatch, [](std::uint64_t iters) {
    obs::set_metrics_enabled(true);
    obs::mem_tracker t(obs::mem_subsystem::queue_buckets);
    t.set(4096);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        t.set(4096);
      }
    }
    micro::keep(t.charged());
    t.set(0);
    obs::mem_clear();
  });
}

/// Armed budget with the total flapping across the soft threshold: the
/// charge path additionally evaluates the ladder and queues transitions
/// into the fixed pending ring.  This is the worst legal charge cost.
void bench_set_armed(micro::suite& s) {
  s.run("mem/set/armed", kBatch, [](std::uint64_t iters) {
    obs::set_metrics_enabled(true);
    obs::set_mem_budget(16 * 4096);
    obs::mem_clear();
    obs::mem_tracker t(obs::mem_subsystem::frontier);
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) {
        // Alternates below ok (4 KiB) and into soft/hard (17 * 4 KiB).
        t.set(static_cast<std::uint64_t>(i % 2 == 0 ? 1 : 17) * 4096);
      }
    }
    micro::keep(t.charged());
    t.set(0);
    obs::mem_pressure_poll();
    obs::set_mem_budget(0);
    obs::mem_clear();
  });
}

}  // namespace

int main() {
  micro::suite s("micro_mem",
                 "memory-attribution charge cost (disabled gate, enabled "
                 "adjust, same-value no-op, armed pressure ladder) in "
                 "batches of 64");
  bench_set_off(s);
  bench_set_on(s);
  bench_set_same(s);
  bench_set_armed(s);
  return 0;
}
