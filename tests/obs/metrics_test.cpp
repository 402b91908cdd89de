/// Metrics-registry tests: handle stability, concurrent counter
/// exactness, snapshot shape, and the central cost-model claim — a
/// disabled instrumentation site performs no allocation and no clock
/// reads, just one predictable branch.
///
/// Counts allocations with the binary's counting operator new
/// (support/counting_new.hpp).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/phase.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "support/counting_new.hpp"

namespace sfg::obs {
namespace {

/// Restore the process-global toggles on scope exit so tests in this
/// binary can't leak enabled metrics/tracing into each other.
struct toggle_guard {
  bool metrics = metrics_on();
  bool trace = trace_on();
  ~toggle_guard() {
    set_metrics_enabled(metrics);
    set_trace_enabled(trace);
  }
};

TEST(Metrics, HandlesAreStable) {
  auto& a = metrics_registry::instance().get_counter("test.stable");
  auto& b = metrics_registry::instance().get_counter("test.stable");
  EXPECT_EQ(&a, &b);
  auto& other = metrics_registry::instance().get_counter("test.stable2");
  EXPECT_NE(&a, &other);
}

TEST(Metrics, CounterGatedOnToggle) {
  toggle_guard guard;
  auto& c = metrics_registry::instance().get_counter("test.gated");
  c.reset();

  set_metrics_enabled(false);
  c.add(5);
  EXPECT_EQ(c.value(), 0u);

  set_metrics_enabled(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
  c.add();  // default increment
  EXPECT_EQ(c.value(), 6u);
}

TEST(Metrics, SamplerAloneArmsTheDataGate) {
  toggle_guard guard;
  const std::uint32_t saved_interval = ts_interval_ms();
  set_metrics_enabled(false);
  set_ts_interval_ms(50);
  EXPECT_TRUE(metrics_on());
  EXPECT_TRUE(comm_matrix_on());
  EXPECT_TRUE(io_hist_on());
  EXPECT_TRUE(mem_on());
  set_ts_interval_ms(0);
  EXPECT_FALSE(metrics_on());
  set_ts_interval_ms(saved_interval);
  ts_clear();
}

TEST(Metrics, ConcurrentCounterIsExact) {
  toggle_guard guard;
  set_metrics_enabled(true);
  auto& c = metrics_registry::instance().get_counter("test.concurrent");
  c.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, ConcurrentRegistrationIsSafe) {
  toggle_guard guard;
  set_metrics_enabled(true);
  // All threads race to register and bump the same 4 names; each name
  // must resolve to one counter and the totals must be exact.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const char* name = (i % 4 == 0)   ? "test.race.a"
                           : (i % 4 == 1) ? "test.race.b"
                           : (i % 4 == 2) ? "test.race.c"
                                          : "test.race.d";
        metrics_registry::instance().get_counter(name).add(1);
      }
      (void)t;
    });
  }
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (const char* name :
       {"test.race.a", "test.race.b", "test.race.c", "test.race.d"}) {
    total += metrics_registry::instance().get_counter(name).value();
  }
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(Metrics, GaugeAndTimer) {
  toggle_guard guard;
  set_metrics_enabled(true);

  auto& g = metrics_registry::instance().get_gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  auto& t = metrics_registry::instance().get_timer("test.timer");
  t.reset();
  t.record(100);
  t.record(300);
  t.record(200);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.total_ns(), 600u);
  EXPECT_EQ(t.max_ns(), 300u);
}

TEST(Metrics, ScopedTimerRecordsOnlyWhenEnabled) {
  toggle_guard guard;
  auto& t = metrics_registry::instance().get_timer("test.scoped");
  t.reset();

  set_metrics_enabled(false);
  { scoped_timer st(t); }
  EXPECT_EQ(t.count(), 0u);

  set_metrics_enabled(true);
  { scoped_timer st(t); }
  EXPECT_EQ(t.count(), 1u);
}

TEST(Metrics, SnapshotShape) {
  toggle_guard guard;
  set_metrics_enabled(true);
  metrics_registry::instance().get_counter("test.snap.count").add(7);
  metrics_registry::instance().get_gauge("test.snap.gauge").set(1.5);
  metrics_registry::instance().get_timer("test.snap.timer").record(1'000'000);

  const json snap = metrics_registry::instance().snapshot();
  ASSERT_TRUE(snap.is_object());
  for (const char* section : {"counters", "gauges", "timers"}) {
    ASSERT_NE(snap.find(section), nullptr) << section;
    EXPECT_TRUE(snap.find(section)->is_object()) << section;
  }
  const json* c = snap.find("counters")->find("test.snap.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_u64(), 7u);
  const json* t = snap.find("timers")->find("test.snap.timer");
  ASSERT_NE(t, nullptr);
  ASSERT_NE(t->find("count"), nullptr);
  EXPECT_EQ(t->find("count")->as_u64(), 1u);

  // Snapshot must round-trip through the serializer.
  const auto back = json::parse(snap.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, snap);
}

TEST(Metrics, ResetValuesKeepsRegistration) {
  toggle_guard guard;
  set_metrics_enabled(true);
  auto& c = metrics_registry::instance().get_counter("test.reset");
  c.add(3);
  metrics_registry::instance().reset_values();
  EXPECT_EQ(c.value(), 0u);
  // Same handle still works after the reset.
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, DisabledSitesDoNotAllocate) {
  toggle_guard guard;
  set_metrics_enabled(false);
  set_trace_enabled(false);

  // Resolve handles up front — the documented pattern for hot sites.
  auto& c = metrics_registry::instance().get_counter("test.noalloc");
  auto& g = metrics_registry::instance().get_gauge("test.noalloc.g");
  auto& t = metrics_registry::instance().get_timer("test.noalloc.t");

  const std::size_t events_before = trace_event_count();
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 10'000; ++i) {
    c.add(1);
    g.set(1.0);
    { scoped_timer st(t); }
    { trace_span span("noalloc", "test"); span.set_arg("i", i); }
    trace_instant("noalloc.i", "test");
  }
  const std::uint64_t after = test::allocations();

  EXPECT_EQ(after - before, 0u)
      << "disabled instrumentation sites must not allocate";
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(trace_event_count(), events_before)
      << "disabled tracing must not record events";
}

TEST(Metrics, FlightRecordHotPathDoesNotAllocate) {
  // The flight recorder is ON by default, so its steady-state cost matters
  // more than any other site's: after the first event faults in this
  // thread's ring, recording must be allocation-free.
  const bool saved = flight_on();
  set_flight_enabled(true);
  flight_record(flight_kind::queue_batch, 0, 0);  // warm up: ring + TLS cache

  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 10'000; ++i) {
    flight_record(flight_kind::queue_batch, static_cast<std::uint64_t>(i), 1);
    flight_record(flight_kind::mbox_packet, 4, 256);
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(after - before, 0u)
      << "flight_record must not allocate after the ring exists";
  set_flight_enabled(saved);
}

TEST(Metrics, DisabledFlightDoesNotAllocate) {
  const bool saved_flight = flight_on();
  set_flight_enabled(false);

  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 10'000; ++i) {
    flight_record(flight_kind::queue_batch, 1, 2);
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(after - before, 0u)
      << "the disabled flight recorder must not allocate";
  set_flight_enabled(saved_flight);
}

TEST(Metrics, DisabledPhaseAndTimeseriesDoNotAllocate) {
  // phase_scope wraps the poll loop, route_record and the page cache's
  // I/O sections; ts_poll runs once per poll iteration.  With metrics and
  // SFG_TS_INTERVAL_MS both off they must cost one branch each — no clock
  // reads, no allocation, no thread-local accounting.
  toggle_guard guard;
  const std::uint32_t saved_interval = ts_interval_ms();
  set_metrics_enabled(false);
  set_ts_interval_ms(0);  // clears the ts toggle and any live samplers

  const std::uint64_t entries_before = phase_entries(phase::visit);
  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 10'000; ++i) {
    { const phase_scope ps(phase::visit); }
    {
      const phase_scope outer(phase::poll);
      const phase_scope inner(phase::term);
    }
    ts_poll();
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(after - before, 0u)
      << "disabled phase scopes and ts_poll must not allocate";
  EXPECT_EQ(phase_entries(phase::visit), entries_before)
      << "disabled phase scopes must not record entries";
  EXPECT_EQ(ts_samples_recorded(), 0u);
  set_ts_interval_ms(saved_interval);
}

TEST(Metrics, DisabledSpanSitesDoNotAllocate) {
  // SFG_SPANS off is the default: a span_record is one branch, span_mark
  // does not even read the clock, and phase scopes stay span-free.
  toggle_guard guard;
  set_metrics_enabled(false);
  const bool saved = spans_on();
  set_spans_enabled(false);

  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 10'000; ++i) {
    span_record(span_kind::phase_seg, 1, 2, 3, 0);
    span_mark(span_kind::mbox_send, 1, static_cast<std::uint64_t>(i));
    { const phase_scope ps(phase::visit); }
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(after - before, 0u)
      << "disabled span sites must not allocate";
  EXPECT_EQ(span_recorded_here(), 0u);
  set_spans_enabled(saved);
  phase_clear_thread();
}

TEST(Metrics, SpanRecordHotPathDoesNotAllocate) {
  // With SFG_SPANS on, the first record faults in this rank's ring (and
  // the thread-local cache); everything after — including the phase-hook
  // segments a phase_scope emits — must be allocation-free.
  toggle_guard guard;
  set_metrics_enabled(false);
  const bool saved = spans_on();
  set_spans_enabled(true);
  span_clear();
  span_record(span_kind::phase_seg, 1, 2);          // warm up: ring + TLS
  { const phase_scope warm(phase::visit); }         // warm up: phase TLS

  const std::uint64_t before = test::allocations();
  for (int i = 0; i < 10'000; ++i) {
    span_record(span_kind::phase_seg, 1, 2, 3, 0);
    span_mark(span_kind::mbox_recv, 0, static_cast<std::uint64_t>(i));
    { const phase_scope ps(phase::visit); }
  }
  const std::uint64_t after = test::allocations();
  EXPECT_EQ(after - before, 0u)
      << "span recording must not allocate after the ring exists";
  EXPECT_GE(span_recorded_here(), 20'000u);
  set_spans_enabled(saved);
  span_clear();
  phase_clear_thread();
}

}  // namespace
}  // namespace sfg::obs
