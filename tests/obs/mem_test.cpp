/// Unit suite for per-subsystem memory attribution (DESIGN.md §15):
/// tracker charge/release pairing, gate-flip balance, peak monotonicity,
/// the pressure ladder's thresholds + hysteresis + stepwise transitions,
/// poll-side callback dispatch, the stats-traits round-trip, and the
/// sfg-mem/1 section validator shared with `sfg_obs check` / `sfg_obs mem`.
#include "obs/mem.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"

namespace sfg::obs {
namespace {

/// Every test runs with attribution on (through the data gate), the
/// ladder disarmed, and a zeroed ledger; teardown restores the ambient
/// (env-derived) state.
class MemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_metrics_ = detail::any_on(detail::kMetricsBit);
    saved_budget_ = mem_budget();
    set_metrics_enabled(true);
    set_mem_budget(0);
    mem_clear();
  }
  void TearDown() override {
    mem_clear();
    set_mem_budget(saved_budget_);
    set_metrics_enabled(saved_metrics_);
  }

 private:
  bool saved_metrics_ = false;
  std::uint64_t saved_budget_ = 0;
};

// The main thread has no rank, so its charges land on the rank = -1 slot.
constexpr int kMe = -1;

TEST_F(MemTest, TrackerChargeReleasePairing) {
  {
    mem_tracker t(mem_subsystem::frontier);
    t.set(4096);
    EXPECT_EQ(t.charged(), 4096u);
    EXPECT_EQ(mem_current(mem_subsystem::frontier, kMe), 4096u);
    EXPECT_EQ(mem_accounted_current(), 4096u);
    t.set(1024);  // shrink releases the delta
    EXPECT_EQ(mem_current(mem_subsystem::frontier, kMe), 1024u);
  }
  // Destructor releases the remainder.
  EXPECT_EQ(mem_current(mem_subsystem::frontier, kMe), 0u);
  EXPECT_EQ(mem_accounted_current(), 0u);
}

TEST_F(MemTest, TrackerIsInertWhileGateOff) {
  set_metrics_enabled(false);
  ASSERT_FALSE(mem_on());  // the sampler would re-imply it
  mem_tracker t(mem_subsystem::queue_buckets);
  t.set(1 << 20);
  EXPECT_EQ(t.charged(), 0u);
  EXPECT_EQ(mem_current(mem_subsystem::queue_buckets, kMe), 0u);
  set_metrics_enabled(true);
}

TEST_F(MemTest, ArmedBudgetAloneTurnsAccountingOn) {
  set_metrics_enabled(false);
  ASSERT_FALSE(mem_on());
  set_mem_budget(1 << 20);
  EXPECT_TRUE(mem_on());
  // The gate follows the budget value alone: disarming turns it off again.
  set_mem_budget(0);
  EXPECT_FALSE(mem_on());
  set_metrics_enabled(true);
}

TEST_F(MemTest, TrackerReleasesBalanceAfterGateFlip) {
  // Charged while on, gate turned off mid-flight: the release must still
  // land on the same slot so the ledger returns to zero.
  mem_tracker t(mem_subsystem::cache_frames);
  t.set(8192);
  ASSERT_EQ(mem_current(mem_subsystem::cache_frames, kMe), 8192u);
  set_metrics_enabled(false);
  t.set(0);
  EXPECT_EQ(t.charged(), 0u);
  EXPECT_EQ(mem_current(mem_subsystem::cache_frames, kMe), 0u);
  set_metrics_enabled(true);
}

TEST_F(MemTest, TrackerMoveTransfersCharge) {
  mem_tracker a(mem_subsystem::mailbox_arena);
  a.set(1000);
  mem_tracker b(std::move(a));
  EXPECT_EQ(a.charged(), 0u);
  EXPECT_EQ(b.charged(), 1000u);
  mem_tracker c(mem_subsystem::mailbox_arena);
  c.set(500);
  swap(b, c);
  EXPECT_EQ(b.charged(), 500u);
  EXPECT_EQ(c.charged(), 1000u);
  // Two live trackers, one subsystem: the slot sees the sum.
  EXPECT_EQ(mem_current(mem_subsystem::mailbox_arena, kMe), 1500u);
}

TEST_F(MemTest, PeakIsMonotonicAcrossReleaseAndRecharge) {
  mem_tracker t(mem_subsystem::builder_scratch);
  t.set(10000);
  t.set(0);
  t.set(3000);
  EXPECT_EQ(mem_current(mem_subsystem::builder_scratch, kMe), 3000u);
  EXPECT_EQ(mem_peak(mem_subsystem::builder_scratch, kMe), 10000u);
  EXPECT_GE(mem_peak(mem_subsystem::builder_scratch, kMe),
            mem_current(mem_subsystem::builder_scratch, kMe));
  EXPECT_EQ(mem_accounted_peak(), 10000u);
}

TEST_F(MemTest, ReleaseAfterClearSaturatesAtZero) {
  mem_tracker t(mem_subsystem::other);
  t.set(1000);
  mem_clear();  // the ledger forgets the bytes t still holds
  t.set(100);   // the 900-byte release must not wrap
  EXPECT_EQ(mem_current(mem_subsystem::other, kMe), 0u);
  EXPECT_EQ(mem_accounted_current(), 0u);
}

TEST_F(MemTest, PressureLadderThresholdsAndHysteresis) {
  set_mem_budget(1000);
  mem_clear();
  mem_tracker t(mem_subsystem::frontier);

  t.set(700);  // below soft-up (750)
  EXPECT_EQ(mem_pressure(), mem_pressure_level::ok);
  t.set(750);  // soft rises at budget - budget/4
  EXPECT_EQ(mem_pressure(), mem_pressure_level::soft);
  t.set(999);  // still soft
  EXPECT_EQ(mem_pressure(), mem_pressure_level::soft);
  t.set(1000);  // hard rises at the budget
  EXPECT_EQ(mem_pressure(), mem_pressure_level::hard);
  t.set(900);  // hysteresis: hard holds until below budget - budget/8
  EXPECT_EQ(mem_pressure(), mem_pressure_level::hard);
  t.set(874);
  EXPECT_EQ(mem_pressure(), mem_pressure_level::soft);
  t.set(500);  // soft holds until below budget/2
  EXPECT_EQ(mem_pressure(), mem_pressure_level::soft);
  t.set(499);
  EXPECT_EQ(mem_pressure(), mem_pressure_level::ok);

  const auto counts = mem_pressure_counts();
  EXPECT_EQ(counts.to_hard, 1u);
  EXPECT_EQ(counts.to_soft, 2u);  // up at 750, back down at 874
  EXPECT_EQ(counts.to_ok, 1u);
  set_mem_budget(0);
}

TEST_F(MemTest, SingleLargeChargeRecordsEveryRung) {
  // ok -> hard in one charge must still record the soft transition the
  // process stepped through — the CI smoke greps for exactly that.
  set_mem_budget(1000);
  mem_clear();
  mem_tracker t(mem_subsystem::frontier);
  t.set(5000);
  EXPECT_EQ(mem_pressure(), mem_pressure_level::hard);
  const auto counts = mem_pressure_counts();
  EXPECT_EQ(counts.to_soft, 1u);
  EXPECT_EQ(counts.to_hard, 1u);
  set_mem_budget(0);
}

TEST_F(MemTest, PressureCallbacksDispatchFromPoll) {
  set_mem_budget(1000);
  mem_clear();
  std::vector<mem_pressure_level> seen;
  const int id = mem_register_pressure_callback(
      [&](mem_pressure_level p) { seen.push_back(p); });

  mem_tracker t(mem_subsystem::frontier);
  t.set(2000);  // charge queues the transitions but must not dispatch
  EXPECT_TRUE(seen.empty());
  mem_pressure_poll();
  ASSERT_EQ(seen.size(), 2u);  // stepwise: soft, then hard
  EXPECT_EQ(seen[0], mem_pressure_level::soft);
  EXPECT_EQ(seen[1], mem_pressure_level::hard);

  mem_unregister_pressure_callback(id);
  t.set(0);
  mem_pressure_poll();
  EXPECT_EQ(seen.size(), 2u);  // unregistered: no further dispatch
  set_mem_budget(0);
}

TEST_F(MemTest, RssGroundTruthIsLive) {
  const auto s = mem_sample_rss();
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GT(s.max_rss_bytes, 0u);
  EXPECT_GT(mem_baseline_rss(), 0u);
  EXPECT_GE(mem_peak_rss(), mem_baseline_rss());
}

TEST_F(MemTest, SnapshotAndStatsTraitsRoundTrip) {
  mem_tracker a(mem_subsystem::frontier);
  mem_tracker b(mem_subsystem::cache_frames);
  a.set(4096);
  b.set(1024);

  const mem_stats snap = mem_snapshot(kMe);
  EXPECT_EQ(snap.frontier, 4096.0);
  EXPECT_EQ(snap.cache_frames, 1024.0);
  EXPECT_EQ(snap.accounted, 4096.0 + 1024.0);
  EXPECT_GT(snap.peak_log2.count, 0u);

  const json j = stats_to_json(snap);
  ASSERT_NE(j.find("frontier"), nullptr);
  EXPECT_EQ(j.find("frontier")->as_double(), 4096.0);
  ASSERT_NE(j.find("peak_log2"), nullptr);

  mem_stats sum = snap;
  stats_add(sum, snap);
  EXPECT_EQ(sum.frontier, 2 * 4096.0);
  mem_stats zero = snap;
  stats_reset(zero);
  EXPECT_EQ(zero.accounted, 0.0);
}

TEST_F(MemTest, SectionJsonPassesItsOwnValidator) {
  set_mem_budget(1 << 20);
  mem_clear();
  mem_tracker a(mem_subsystem::frontier);
  mem_tracker b(mem_subsystem::mailbox_arena);
  a.set(8192);
  b.set(4096);
  (void)mem_sample_rss();  // make sure rss_bytes is non-zero

  json rows = json::array();
  rows.push_back(mem_rank_json(kMe));
  const json section = mem_section_json(std::move(rows));

  std::vector<std::string> errors;
  EXPECT_TRUE(mem_validate(section, &errors))
      << (errors.empty() ? "?" : errors.front());
  EXPECT_TRUE(errors.empty());

  ASSERT_NE(section.find("schema"), nullptr);
  EXPECT_EQ(section.find("schema")->as_string(), "sfg-mem/1");
  EXPECT_EQ(section.find("budget")->as_u64(), std::uint64_t{1} << 20);
  EXPECT_EQ(section.find("accounted_current")->as_u64(), 8192u + 4096u);
  set_mem_budget(0);
}

TEST_F(MemTest, ValidatorRejectsMalformedSections) {
  std::vector<std::string> errors;

  // Wrong schema tag.
  json bad = json::object();
  bad["schema"] = json("sfg-mem/999");
  EXPECT_FALSE(mem_validate(bad, &errors));
  EXPECT_FALSE(errors.empty());

  // A structurally valid section with one row whose subsystem peak is
  // below its current — the invariant mem_rank_json clamps by
  // construction, so a validator that misses it has rotted.  Rows are
  // tampered before mem_section_json wraps them (json exposes no mutable
  // array element access).
  mem_tracker t(mem_subsystem::frontier);
  t.set(4096);
  (void)mem_sample_rss();
  json row = mem_rank_json(kMe);
  row["subsystems"]["frontier"]["peak"] = json(std::uint64_t{1});
  json rows = json::array();
  rows.push_back(std::move(row));
  const json section = mem_section_json(std::move(rows));
  errors.clear();
  EXPECT_FALSE(mem_validate(section, &errors));
  EXPECT_FALSE(errors.empty());

  // Subsystem entry replaced with a non-object.
  json row2 = mem_rank_json(kMe);
  row2["subsystems"]["frontier"] = json("not-an-object");
  json rows2 = json::array();
  rows2.push_back(std::move(row2));
  const json section2 = mem_section_json(std::move(rows2));
  errors.clear();
  EXPECT_FALSE(mem_validate(section2, &errors));
  EXPECT_FALSE(errors.empty());
}

TEST_F(MemTest, ValidatorRejectsNonIntegerCounts) {
  mem_tracker t(mem_subsystem::frontier);
  t.set(4096);
  (void)mem_sample_rss();
  json rows = json::array();
  rows.push_back(mem_rank_json(kMe));
  json section = mem_section_json(std::move(rows));
  std::vector<std::string> errors;
  ASSERT_TRUE(mem_validate(section, &errors))
      << (errors.empty() ? "?" : errors.front());

  // A whole-valued double is still the wrong kind: rejected with a
  // message, where reading it as an integer used to abort.
  section["ranks"] = json(1.0);
  EXPECT_FALSE(mem_validate(section, &errors));
  EXPECT_FALSE(errors.empty());

  json row = mem_rank_json(kMe);
  row["subsystems"]["frontier"]["current"] = json(4096.0);
  json rows2 = json::array();
  rows2.push_back(std::move(row));
  errors.clear();
  EXPECT_FALSE(mem_validate(mem_section_json(std::move(rows2)), &errors));
  EXPECT_FALSE(errors.empty());
}

TEST_F(MemTest, MemClearResetsLedgerAndLadder) {
  set_mem_budget(100);
  mem_tracker t(mem_subsystem::frontier);
  t.set(500);
  ASSERT_EQ(mem_pressure(), mem_pressure_level::hard);
  mem_clear();
  EXPECT_EQ(mem_current(mem_subsystem::frontier, kMe), 0u);
  EXPECT_EQ(mem_peak(mem_subsystem::frontier, kMe), 0u);
  EXPECT_EQ(mem_accounted_current(), 0u);
  EXPECT_EQ(mem_pressure(), mem_pressure_level::ok);
  const auto counts = mem_pressure_counts();
  EXPECT_EQ(counts.to_soft + counts.to_hard + counts.to_ok, 0u);
  // The tracker still believes it holds 500 bytes; releasing after the
  // clear must saturate, not wrap the zeroed slot.
  t.set(0);
  EXPECT_EQ(mem_current(mem_subsystem::frontier, kMe), 0u);
  set_mem_budget(0);
}

}  // namespace
}  // namespace sfg::obs
