/// Trace-layer tests: event recording from multiple threads, the
/// pid=rank / "rank N" metadata model, and well-formedness of the
/// serialized Chrome trace (every event carries name/ph/pid, timed events
/// carry ts, complete events carry dur) — the same contract
/// `sfg_obs check --trace` enforces on CI artifacts.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_context.hpp"
#include "util/log.hpp"

namespace sfg::obs {
namespace {

struct trace_fixture : ::testing::Test {
  bool saved_trace = trace_on();
  void SetUp() override {
    set_trace_enabled(true);
    trace_clear();
  }
  void TearDown() override {
    trace_clear();
    set_trace_enabled(saved_trace);
  }
};

/// All recorded events (excluding metadata), as json.
json events_json() {
  const json doc = trace_to_json();
  EXPECT_NE(doc.find("traceEvents"), nullptr);
  return *doc.find("traceEvents");
}

const json* find_event(const json& events, const std::string& name) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json* n = events.at(i).find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) {
      return &events.at(i);
    }
  }
  return nullptr;
}

using trace_test = trace_fixture;

TEST_F(trace_test, SpanEmitsCompleteEvent) {
  {
    trace_span span("unit.span", "test");
    span.set_arg("items", 42.0);
  }
  const json events = events_json();
  const json* ev = find_event(events, "unit.span");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->find("ph")->as_string(), "X");
  EXPECT_EQ(ev->find("cat")->as_string(), "test");
  ASSERT_NE(ev->find("ts"), nullptr);
  ASSERT_NE(ev->find("dur"), nullptr);
  ASSERT_NE(ev->find("args"), nullptr);
  EXPECT_DOUBLE_EQ(ev->find("args")->find("items")->as_double(), 42.0);
}

TEST_F(trace_test, InstantEvents) {
  trace_instant("unit.instant", "test", "wave", 3.0);

  const json events = events_json();
  const json* inst = find_event(events, "unit.instant");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->find("ph")->as_string(), "i");
}

TEST_F(trace_test, PidTracksThreadRank) {
  // Events from a thread tagged as rank 2 must land on pid 2, with a
  // "rank 2" process_name metadata record so Perfetto labels the row.
  std::thread([] {
    util::set_thread_rank(2);
    trace_instant("unit.rank2", "test");
    util::set_thread_rank(-1);
  }).join();

  const json events = events_json();
  const json* ev = find_event(events, "unit.rank2");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->find("pid")->as_i64(), 2);

  const json* meta = find_event(events, "process_name");
  ASSERT_NE(meta, nullptr) << "expected a process_name metadata event";
  EXPECT_EQ(meta->find("ph")->as_string(), "M");
}

TEST_F(trace_test, MultiThreadedRecordingIsWellFormed) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      util::set_thread_rank(t % 4);
      for (int i = 0; i < kPerThread; ++i) {
        trace_span span("mt.span", "test");
        trace_instant("mt.instant", "test", "i", i);
      }
      util::set_thread_rank(-1);
    });
  }
  for (auto& w : workers) w.join();

  const json events = events_json();
  // 2 events per iteration, plus metadata records.
  EXPECT_GE(events.size(), std::size_t{2 * kThreads * kPerThread});

  std::set<std::int64_t> pids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json& ev = events.at(i);
    ASSERT_NE(ev.find("name"), nullptr) << "event " << i;
    ASSERT_NE(ev.find("ph"), nullptr) << "event " << i;
    ASSERT_NE(ev.find("pid"), nullptr) << "event " << i;
    const std::string ph = ev.find("ph")->as_string();
    if (ph != "M") {
      ASSERT_NE(ev.find("ts"), nullptr) << "event " << i;
    }
    if (ph == "X") {
      ASSERT_NE(ev.find("dur"), nullptr) << "event " << i;
      pids.insert(ev.find("pid")->as_i64());
    }
  }
  EXPECT_EQ(pids.size(), 4u) << "expected one timeline per simulated rank";
}

TEST_F(trace_test, WriteChromeTraceProducesParsableFile) {
  trace_instant("unit.file", "test");
  const std::string path = ::testing::TempDir() + "trace_test_out.json";
  write_chrome_trace(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto doc = json::parse(ss.str());
  ASSERT_TRUE(doc.has_value()) << "trace file is not valid JSON";
  ASSERT_NE(doc->find("traceEvents"), nullptr);
  EXPECT_GT(doc->find("traceEvents")->size(), 0u);
  std::remove(path.c_str());
}

TEST_F(trace_test, ClearDropsEverything) {
  trace_instant("unit.cleared", "test");
  EXPECT_GT(trace_event_count(), 0u);
  trace_clear();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(trace_test, TimeIsMonotonic) {
  const auto a = trace_now_us();
  const auto b = trace_now_us();
  EXPECT_LE(a, b);
}

// ---------------------------------------------------------------------------
// Flow events ('s'/'t'/'f') — the causal-chain vocabulary.
// ---------------------------------------------------------------------------

TEST_F(trace_test, FlowEventsCarryPhaseAndId) {
  constexpr std::uint64_t kId = 0x8000'1234'5678'9abcULL;
  trace_flow_begin("flow.start", kId);
  trace_flow_step("flow.mid", kId);
  trace_flow_end("flow.finish", kId);

  const json events = events_json();
  const json* s = find_event(events, "flow.start");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->find("ph")->as_string(), "s");
  EXPECT_EQ(s->find("cat")->as_string(), "visitor_flow");
  ASSERT_NE(s->find("id"), nullptr);
  EXPECT_EQ(s->find("id")->as_u64(), kId);
  EXPECT_EQ(s->find("bp"), nullptr);

  const json* t = find_event(events, "flow.mid");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->find("ph")->as_string(), "t");
  EXPECT_EQ(t->find("id")->as_u64(), kId);

  const json* f = find_event(events, "flow.finish");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->find("ph")->as_string(), "f");
  EXPECT_EQ(f->find("id")->as_u64(), kId);
  // Binding point "enclosing": the arrow lands on the event that was
  // active when the flow ended, which is how Perfetto draws chains.
  ASSERT_NE(f->find("bp"), nullptr);
  EXPECT_EQ(f->find("bp")->as_string(), "e");
}

TEST_F(trace_test, FlowEventsRespectEnableGate) {
  set_trace_enabled(false);
  trace_flow_begin("flow.gated", 7);
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(trace_test, FlowStepCarriesArg) {
  trace_flow_step("flow.arg", 9, "visitor_flow", "hop", 3.0);
  const json events = events_json();
  const json* ev = find_event(events, "flow.arg");
  ASSERT_NE(ev, nullptr);
  ASSERT_NE(ev->find("args"), nullptr);
  EXPECT_DOUBLE_EQ(ev->find("args")->find("hop")->as_double(), 3.0);
}

// ---------------------------------------------------------------------------
// trace_ctx packing — origin rank, vertex bits, hop count, sampled bit.
// ---------------------------------------------------------------------------

TEST(trace_ctx_test, PackAndUnpackRoundTrips) {
  const trace_ctx c = make_trace_ctx(1234, 0xab'cdef'0123ULL, 5);
  EXPECT_TRUE(ctx_sampled(c));
  EXPECT_EQ(ctx_origin(c), 1234);
  EXPECT_EQ(ctx_vertex(c), 0xab'cdef'0123ULL);
  EXPECT_EQ(ctx_hops(c), 5u);
}

TEST(trace_ctx_test, ZeroMeansUnsampled) {
  EXPECT_FALSE(ctx_sampled(trace_ctx{0}));
}

TEST(trace_ctx_test, VertexBitsTruncateTo40) {
  // Only the low 40 bits of the vertex survive; the id is a sampling
  // correlator, not a lossless vertex encoding.
  const trace_ctx c = make_trace_ctx(0, ~0ULL, 0);
  EXPECT_EQ(ctx_vertex(c), (std::uint64_t{1} << 40) - 1);
}

TEST(trace_ctx_test, HopCountSaturatesAt127) {
  trace_ctx c = make_trace_ctx(3, 42, 126);
  c = ctx_bump_hop(c);
  EXPECT_EQ(ctx_hops(c), 127u);
  c = ctx_bump_hop(c);  // saturates instead of wrapping into origin bits
  EXPECT_EQ(ctx_hops(c), 127u);
  EXPECT_EQ(ctx_origin(c), 3);
  EXPECT_EQ(ctx_vertex(c), 42u);
  EXPECT_TRUE(ctx_sampled(c));
}

TEST(trace_ctx_test, BumpHopOnUnsampledStaysZero) {
  EXPECT_EQ(ctx_bump_hop(trace_ctx{0}), trace_ctx{0});
}

TEST(trace_ctx_test, FlowIdIsHopInvariant) {
  // Every hop of one visitor chain must map to the same flow id, or the
  // Chrome-trace arrows would not connect across ranks.
  const trace_ctx h0 = make_trace_ctx(17, 99, 0);
  const trace_ctx h3 = make_trace_ctx(17, 99, 3);
  EXPECT_NE(h0, h3);
  EXPECT_EQ(ctx_flow_id(h0), ctx_flow_id(h3));
  // Distinct origins or vertices are distinct flows.
  EXPECT_NE(ctx_flow_id(make_trace_ctx(18, 99, 0)), ctx_flow_id(h0));
  EXPECT_NE(ctx_flow_id(make_trace_ctx(17, 98, 0)), ctx_flow_id(h0));
}

// ---------------------------------------------------------------------------
// Sampling gate — 1-in-N per thread, off when tracing is off or rate is 0.
// ---------------------------------------------------------------------------

struct sampling_fixture : trace_fixture {
  std::uint32_t saved_rate = trace_sample_rate();
  void TearDown() override {
    set_trace_sample_rate(saved_rate);
    trace_fixture::TearDown();
  }
};

using sampling_test = sampling_fixture;

TEST_F(sampling_test, RateZeroNeverSamples) {
  set_trace_sample_rate(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_trace_ctx(0, static_cast<std::uint64_t>(i)), 0u);
  }
}

TEST_F(sampling_test, TracingOffNeverSamples) {
  set_trace_sample_rate(1);
  set_trace_enabled(false);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sample_trace_ctx(0, static_cast<std::uint64_t>(i)), 0u);
  }
}

TEST_F(sampling_test, RateOneSamplesEverything) {
  set_trace_sample_rate(1);
  // Run on a fresh thread so this test does not inherit another test's
  // thread-local countdown position.
  int sampled = 0;
  std::thread([&] {
    for (int i = 0; i < 50; ++i) {
      if (sample_trace_ctx(2, static_cast<std::uint64_t>(i)) != 0) ++sampled;
    }
  }).join();
  EXPECT_EQ(sampled, 50);
}

TEST_F(sampling_test, RateNSamplesExactlyOneInN) {
  constexpr std::uint32_t kRate = 8;
  constexpr int kCalls = 80;
  set_trace_sample_rate(kRate);
  int sampled = 0;
  trace_ctx first = 0;
  std::thread([&] {
    for (int i = 0; i < kCalls; ++i) {
      const trace_ctx c = sample_trace_ctx(3, static_cast<std::uint64_t>(i));
      if (c != 0) {
        if (first == 0) first = c;
        ++sampled;
      }
    }
  }).join();
  EXPECT_EQ(sampled, kCalls / static_cast<int>(kRate));
  ASSERT_NE(first, 0u);
  EXPECT_TRUE(ctx_sampled(first));
  EXPECT_EQ(ctx_origin(first), 3);
  EXPECT_EQ(ctx_hops(first), 0u);
}

}  // namespace
}  // namespace sfg::obs
