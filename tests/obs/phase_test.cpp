/// Phase-attribution profiler tests (obs/phase.hpp): the self-time
/// accounting contract — a child scope's wall time is excluded from its
/// parent's self time, so the slots partition accounted time — plus
/// disabled no-op behavior, depth-overflow safety, and the stats_traits
/// reflection that folds phase_stats into traversal reports.
#include "obs/phase.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"
#include "obs/timeseries.hpp"

namespace sfg::obs {
namespace {

struct phase_guard {
  bool metrics = metrics_on();
  ~phase_guard() {
    set_metrics_enabled(metrics);
    phase_clear_thread();
  }
};

void spin_for(std::chrono::microseconds us) {
  const auto end = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(Phase, DisabledScopesRecordNothing) {
  phase_guard guard;
  set_metrics_enabled(false);
  phase_clear_thread();
  {
    const phase_scope ps(phase::visit);
    spin_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(phase_entries(phase::visit), 0u);
  EXPECT_EQ(phase_snapshot().total_ns(), 0u);
}

TEST(Phase, SelfTimeAccumulatesPerPhase) {
  phase_guard guard;
  set_metrics_enabled(true);
  phase_clear_thread();
  {
    const phase_scope ps(phase::poll);
    spin_for(std::chrono::microseconds(500));
  }
  const phase_stats s = phase_snapshot();
  EXPECT_EQ(phase_entries(phase::poll), 1u);
  EXPECT_GE(s.poll_ns, 400'000u);
  EXPECT_EQ(s.visit_ns, 0u);
  EXPECT_EQ(s.total_ns(), s.poll_ns);
}

TEST(Phase, ChildTimeExcludedFromParentSelfTime) {
  // The partition property everything downstream relies on: parent self
  // time is its wall time minus its children's wall time, so per-phase
  // fractions of an interval can sum to at most 1.
  phase_guard guard;
  set_metrics_enabled(true);
  phase_clear_thread();
  const auto before = std::chrono::steady_clock::now();
  {
    const phase_scope outer(phase::idle);
    spin_for(std::chrono::microseconds(300));
    {
      const phase_scope inner(phase::io_wait);
      spin_for(std::chrono::microseconds(1000));
    }
    spin_for(std::chrono::microseconds(300));
  }
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - before)
          .count());
  const phase_stats s = phase_snapshot();
  EXPECT_GE(s.io_wait_ns, 800'000u);
  EXPECT_GE(s.idle_ns, 400'000u);
  // Self times partition the outer scope's wall time, whatever the
  // scheduler does; a parent that kept its child's time would exceed the
  // wall by the child's 1000us.
  EXPECT_LE(s.idle_ns + s.io_wait_ns, wall_ns)
      << "child wall time must not count into the parent's self time";
}

TEST(Phase, SiblingAndRepeatedScopesAllAccount) {
  phase_guard guard;
  set_metrics_enabled(true);
  phase_clear_thread();
  for (int i = 0; i < 3; ++i) {
    const phase_scope outer(phase::visit);
    {
      const phase_scope a(phase::scan);
      spin_for(std::chrono::microseconds(100));
    }
    {
      const phase_scope b(phase::mbox_pack);
      spin_for(std::chrono::microseconds(100));
    }
  }
  EXPECT_EQ(phase_entries(phase::visit), 3u);
  EXPECT_EQ(phase_entries(phase::scan), 3u);
  EXPECT_EQ(phase_entries(phase::mbox_pack), 3u);
  const phase_stats s = phase_snapshot();
  EXPECT_GT(s.scan_ns, 0u);
  EXPECT_GT(s.mbox_pack_ns, 0u);
}

TEST(Phase, DepthOverflowFoldsIntoEnclosingPhase) {
  // Scopes past kMaxPhaseDepth (16) stay disarmed: their time folds into
  // the deepest armed ancestor instead of corrupting the stack.
  phase_guard guard;
  set_metrics_enabled(true);
  phase_clear_thread();
  const std::uint64_t before = phase_entries(phase::scan);
  {
    std::vector<std::unique_ptr<phase_scope>> deep;
    for (int i = 0; i < 40; ++i) {
      deep.push_back(std::make_unique<phase_scope>(phase::scan));
    }
    // Unwind in LIFO order.
    while (!deep.empty()) deep.pop_back();
  }
  // Exactly the armed (first 16) scopes record entries; the rest no-op.
  EXPECT_EQ(phase_entries(phase::scan) - before, 16u);
}

TEST(Phase, SnapshotDeltaAndTraitsRoundTrip) {
  phase_guard guard;
  set_metrics_enabled(true);
  phase_clear_thread();
  const phase_stats start = phase_snapshot();
  {
    const phase_scope ps(phase::term);
    spin_for(std::chrono::microseconds(200));
  }
  const phase_stats delta = stats_delta(phase_snapshot(), start);
  EXPECT_GT(delta.term_ns, 0u);
  EXPECT_EQ(delta.visit_ns, 0u);

  const json j = stats_to_json(delta);
  ASSERT_TRUE(j.is_object());
  ASSERT_NE(j.find("term_ns"), nullptr);
  EXPECT_EQ(j.find("term_ns")->as_u64(), delta.term_ns);
  ASSERT_NE(j.find("idle_ns"), nullptr);

  phase_stats sum{};
  stats_add(sum, delta);
  stats_add(sum, delta);
  EXPECT_EQ(sum.term_ns, 2 * delta.term_ns);
}

TEST(Phase, EnabledViaTimeseriesToggleAlone) {
  // phase_on() must arm scopes when only the sampler is consuming them.
  phase_guard guard;
  const std::uint32_t saved_interval = ts_interval_ms();
  set_metrics_enabled(false);
  set_ts_interval_ms(50);
  EXPECT_TRUE(phase_on());
  phase_clear_thread();
  {
    const phase_scope ps(phase::mbox_flush);
    spin_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(phase_entries(phase::mbox_flush), 1u);
  EXPECT_GT(phase_snapshot().mbox_flush_ns, 0u);
  set_ts_interval_ms(saved_interval);
  ts_clear();
}

}  // namespace
}  // namespace sfg::obs
