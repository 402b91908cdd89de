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
// Flow events ('s'/'t'/'f') — the mailbox's per-packet arrows.
// ---------------------------------------------------------------------------

TEST_F(trace_test, FlowEventsCarryPhaseAndId) {
  constexpr std::uint64_t kId = 0x8000'1234'5678'9abcULL;
  trace_flow('s', "flow.start", "mailbox", kId);
  trace_flow('t', "flow.mid", "mailbox", kId);
  trace_flow('f', "flow.finish", "mailbox", kId);

  const json events = events_json();
  const json* s = find_event(events, "flow.start");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->find("ph")->as_string(), "s");
  EXPECT_EQ(s->find("cat")->as_string(), "mailbox");
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
  // Binding point "enclosing": the arrow lands on the slice that was
  // active when the flow ended, which is how Perfetto draws it.
  ASSERT_NE(f->find("bp"), nullptr);
  EXPECT_EQ(f->find("bp")->as_string(), "e");
}

TEST_F(trace_test, FlowEventsRespectEnableGate) {
  set_trace_enabled(false);
  trace_flow('s', "flow.gated", "mailbox", 7);
  EXPECT_EQ(trace_event_count(), 0u);
}

}  // namespace
}  // namespace sfg::obs
