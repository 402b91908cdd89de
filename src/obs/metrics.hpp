/// \file metrics.hpp
/// Process-wide metrics registry: named monotonic counters, gauges and
/// timers, aggregated across all in-process ranks (ranks are threads, so
/// one registry sees the whole "cluster" — the per-rank view stays in the
/// subsystem stats structs, see stats_fields.hpp).
///
/// Cost model, same pattern as runtime::fault_params: everything is gated
/// on one cached bool (`metrics_on()`, an inlined relaxed load of the
/// constant-initialised `detail::toggles` block, which the environment
/// sets once at start-up).  Disabled, an instrumented site is one load and
/// a single predictable branch — no call, no clock reads, no atomics RMW,
/// no allocation
/// (tests/obs/metrics_test.cpp verifies the zero-allocation claim with a
/// counting operator new).  Enabled, a counter bump is one relaxed
/// fetch_add.
///
/// Environment switches, read once by metrics.cpp's static initialiser
/// (README.md's table is the user-facing list).  Every count is a whole
/// decimal number: a malformed or out-of-range value keeps the switch at
/// its default and logs one warning naming the variable.
///   SFG_METRICS=<path>      arm the data gate (metrics_on()); traversals
///                           append a structured JSON report at <path>
///                           (run_report.hpp)
///   SFG_TRACE=<path>        enable tracing; a Chrome/Perfetto-loadable trace
///                           (spans, plus one flow arrow per mailbox
///                           packet) is written to <path> at process exit
///                           if the process recorded any event (trace.hpp)
///   SFG_TS_INTERVAL_MS=<n>  live time-series sampling every n ms
///                           (timeseries.hpp), which arms the data gate;
///                           0 disables
///   SFG_TS_DIR=<dir>        per-rank sfg-timeseries/1 JSONL output dir
///                           (default "."); files are truncated when a
///                           rank's sampler starts
///   SFG_SPANS=0|1           record the per-rank critical-path span log
///                           (span.hpp): phase self-time segments, mailbox
///                           flush->deliver edges, BFS level markers.
///                           Traversal reports then embed an sfg-critpath/1
///                           section (critpath.hpp) consumed by `sfg_obs why`
///   SFG_SPAN_EVENTS=<n>     span-ring capacity per rank, rounded up to a
///                           power of two (default 16384); 0 disables
///   SFG_FLIGHT_EVENTS=<n>   flight-ring capacity per rank, rounded up to a
///                           power of two (default 1024); 0 disables
///   SFG_FLIGHT_DUMP=<path>  where flight dumps land (flight.hpp)
///   SFG_MEM_BUDGET=<bytes>  arm the soft memory budget: accounted bytes
///                           crossing the ladder thresholds fire ok/soft/
///                           hard pressure transitions (mem.hpp); implies
///                           memory attribution.  0 disarms the ladder
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace sfg::obs {

namespace detail {

/// Bits of obs_toggles::on, one per boolean switch.  They share a word so
/// that a gate implied by several switches (metrics_on, phase_on, mem_on)
/// is still one load and one mask test.
inline constexpr std::uint32_t kMetricsBit = 1u << 0;
inline constexpr std::uint32_t kTraceBit = 1u << 1;
/// Live time-series sampling (SFG_TS_INTERVAL_MS > 0, timeseries.hpp).
inline constexpr std::uint32_t kTimeseriesBit = 1u << 2;
/// Critical-path span log (SFG_SPANS, span.hpp): opt-in only, never
/// implied by the data gate.
inline constexpr std::uint32_t kSpansBit = 1u << 3;
/// Flight recorder (flight.hpp): the one switch that defaults to ON;
/// SFG_FLIGHT_EVENTS=0 clears it.
inline constexpr std::uint32_t kFlightBit = 1u << 4;
/// Set exactly while obs_toggles::mem_budget is non-zero (set_mem_budget
/// keeps the two in step), so mem_on() stays one load.
inline constexpr std::uint32_t kMemBudgetBit = 1u << 5;

/// The process's observability switches.  Compiled-in defaults below; the
/// SFG_* environment is applied once, by metrics.cpp's static initialiser.
/// A gate read before that initialiser has run (from another translation
/// unit's static initialiser) sees these defaults.
struct obs_toggles {
  std::atomic<std::uint32_t> on{kFlightBit};
  /// Soft memory budget in bytes (SFG_MEM_BUDGET, mem.hpp); 0 = disarmed.
  std::atomic<std::uint64_t> mem_budget{0};
};

extern constinit obs_toggles toggles;

/// True iff any switch in `mask` is on: one relaxed load, one branch.
/// This and every gate built on it are forced inline, as phase_scope is:
/// in a large translation unit GCC otherwise may emit a gate out of line,
/// and the load becomes a call on whatever hot path tests it.
[[nodiscard, gnu::always_inline]] inline bool any_on(
    std::uint32_t mask) noexcept {
  return (toggles.on.load(std::memory_order_relaxed) & mask) != 0;
}

inline void set_switch(std::uint32_t bit, bool on) noexcept {
  if (on) {
    toggles.on.fetch_or(bit, std::memory_order_relaxed);
  } else {
    toggles.on.fetch_and(~bit, std::memory_order_relaxed);
  }
}

}  // namespace detail

/// The data gate: true while the metrics report or the time-series
/// sampler is armed.  Every registry, traffic-matrix and storage-I/O site
/// checks it: one relaxed load, one predictable branch.
[[nodiscard, gnu::always_inline]] inline bool metrics_on() noexcept {
  return detail::any_on(detail::kMetricsBit | detail::kTimeseriesBit);
}

/// The time-series sampler's gate (ts_poll in timeseries.hpp).
[[nodiscard, gnu::always_inline]] inline bool ts_on() noexcept {
  return detail::any_on(detail::kTimeseriesBit);
}

/// Critical-path span-log gate (span.hpp): strictly opt-in via SFG_SPANS
/// (or set_spans_enabled) — span rings cost memory per rank and a ring
/// write per phase transition, so metrics alone never imply them.
[[nodiscard, gnu::always_inline]] inline bool spans_on() noexcept {
  return detail::any_on(detail::kSpansBit);
}

/// Phase-attribution gate (phase.hpp): phase timers feed the
/// end-of-traversal registry fold (metrics), the live sampler
/// (timeseries) and the span log's self-time segments (critpath), so they
/// run whenever any consumer is on.
[[nodiscard, gnu::always_inline]] inline bool phase_on() noexcept {
  return detail::any_on(detail::kMetricsBit | detail::kTimeseriesBit |
                        detail::kSpansBit);
}

/// The rank x rank traffic matrix (mailbox/routed_mailbox.hpp) and the
/// storage I/O histograms (page_cache.hpp, block_device.hpp) run under
/// the data gate; these names stay for callers that list every gate.
[[nodiscard, gnu::always_inline]] inline bool comm_matrix_on() noexcept {
  return metrics_on();
}
[[nodiscard, gnu::always_inline]] inline bool io_hist_on() noexcept {
  return metrics_on();
}

/// Memory-attribution gate (mem.hpp): the per-rank per-subsystem byte
/// counters update under the data gate, or while a budget is armed (the
/// pressure ladder cannot fire without the accounting that feeds it).
[[nodiscard, gnu::always_inline]] inline bool mem_on() noexcept {
  return detail::any_on(detail::kMetricsBit | detail::kTimeseriesBit |
                        detail::kMemBudgetBit);
}

/// Soft memory budget in bytes (SFG_MEM_BUDGET / set_mem_budget);
/// 0 means the pressure ladder is disarmed.
[[nodiscard]] inline std::uint64_t mem_budget() noexcept {
  return detail::toggles.mem_budget.load(std::memory_order_relaxed);
}

/// Programmatic overrides (benches/CLI/tests); the environment only sets
/// the defaults.
void set_metrics_enabled(bool on);
void set_spans_enabled(bool on);
/// Arms (non-zero) or disarms (0) the pressure ladder; memory attribution
/// follows it unless the data gate keeps it on.
void set_mem_budget(std::uint64_t bytes);

/// Path for traversal run reports (SFG_METRICS or set_metrics_report_path);
/// empty when reporting is off.
[[nodiscard]] std::string metrics_report_path();
void set_metrics_report_path(std::string path);

/// Monotonic named counter.  Handles are stable for the process lifetime;
/// cache the reference at the instrumentation site.
class counter {
 public:
  /// Gated add: no-op (one branch) while metrics are disabled.
  void add(std::uint64_t n = 1) noexcept {
    if (metrics_on()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Ungated add, for sites that already checked metrics_on() once for a
  /// whole block of updates.
  void add_raw(std::uint64_t n) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written named value (e.g. queue depth, cache occupancy).
class gauge {
 public:
  void set(double v) noexcept {
    if (metrics_on()) v_.store(v, std::memory_order_relaxed);
  }
  /// Ungated set, for sites that already checked their own gate (e.g. the
  /// visitor queue's live gauges, which must update when either metrics or
  /// the time-series sampler is consuming them).
  void set_raw(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Named duration accumulator: count, total and max, all in nanoseconds.
class timer_metric {
 public:
  void record(std::uint64_t ns) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (prev < ns &&
           !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const noexcept {
    return max_ns_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    total_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Concurrent fixed-bucket log2 histogram — the registry-resident sibling
/// of obs::histogram (histogram.hpp).  record() is gated like counter::add;
/// concurrent records only touch relaxed atomics.  snapshot() materializes
/// a plain obs::histogram for quantile math / JSON.
class histogram_metric {
 public:
  void record(std::uint64_t v) noexcept {
    if (metrics_on()) record_raw(v);
  }
  /// Ungated record, for sites that hoisted the metrics_on() check.
  void record_raw(std::uint64_t v) noexcept {
    buckets_[histogram::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  /// Fold a plain histogram (e.g. a per-rank delta from a stats struct)
  /// into this registry entry.  Ungated, like counter::add_raw.
  void merge_raw(const histogram& h) noexcept {
    for (std::size_t i = 0; i < histogram::kBuckets; ++i) {
      if (h.buckets[i] != 0) {
        buckets_[i].fetch_add(h.buckets[i], std::memory_order_relaxed);
      }
    }
    count_.fetch_add(h.count, std::memory_order_relaxed);
    sum_.fetch_add(h.sum, std::memory_order_relaxed);
  }
  [[nodiscard]] histogram snapshot() const noexcept {
    histogram h;
    for (std::size_t i = 0; i < histogram::kBuckets; ++i) {
      h.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    h.count = count_.load(std::memory_order_relaxed);
    h.sum = sum_.load(std::memory_order_relaxed);
    return h;
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, histogram::kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII timer: reads the clock only while metrics are enabled.
class scoped_timer {
 public:
  explicit scoped_timer(timer_metric& t) noexcept : t_(&t) {
    if (metrics_on()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~scoped_timer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      t_->record(static_cast<std::uint64_t>(ns));
    }
  }
  scoped_timer(const scoped_timer&) = delete;
  scoped_timer& operator=(const scoped_timer&) = delete;

 private:
  timer_metric* t_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

/// The process-wide registry.  Lookup is mutex-protected (do it once per
/// site and cache the reference); the returned handles are lock-free.
class metrics_registry {
 public:
  static metrics_registry& instance();

  counter& get_counter(std::string_view name);
  gauge& get_gauge(std::string_view name);
  timer_metric& get_timer(std::string_view name);
  histogram_metric& get_histogram(std::string_view name);

  /// Everything registered, as one JSON object:
  ///   {"counters": {name: u64}, "gauges": {name: f64},
  ///    "timers": {name: {count, total_ms, max_ms}},
  ///    "histograms": {name: {count, sum, mean, p50, p90, p99}}}
  /// Names are emitted in sorted order (reports stay diffable).
  [[nodiscard]] json snapshot() const;

  /// Zero every registered value (registration survives).  Benches use
  /// this between configurations; instrumented sites keep their handles.
  void reset_values();

 private:
  metrics_registry() = default;
  struct impl;
  impl& state() const;
};

}  // namespace sfg::obs
