/// Run-report and stats-reflection tests, ending with the observability
/// acceptance test: a chaos-seeded distributed BFS, async and hybrid, with
/// metrics + tracing live must produce a per-rank trace containing the
/// traversal and mailbox spans, a registry whose "traversal.*" counters
/// agree with the driver's own stats, and a valid sfg-metrics/1 report.
#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/bfs_hybrid.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"
#include "runtime/runtime.hpp"

namespace {

// A self-contained reflected stats pair exercising the nested case.
struct inner_stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
struct outer_stats {
  std::uint64_t ops = 0;
  double ratio = 0;
  inner_stats cache{};
};

}  // namespace

template <>
struct sfg::obs::stats_traits<inner_stats> {
  static constexpr auto fields =
      std::make_tuple(stats_field{"hits", &inner_stats::hits},
                      stats_field{"misses", &inner_stats::misses});
};
template <>
struct sfg::obs::stats_traits<outer_stats> {
  static constexpr auto fields =
      std::make_tuple(stats_field{"ops", &outer_stats::ops},
                      stats_field{"ratio", &outer_stats::ratio},
                      stats_field{"cache", &outer_stats::cache});
};

namespace sfg::obs {
namespace {

struct obs_guard {
  bool metrics = metrics_on();
  bool trace = trace_on();
  std::string report = metrics_report_path();
  ~obs_guard() {
    set_metrics_enabled(metrics);
    set_trace_enabled(trace);
    set_metrics_report_path(report);
    clear_traversal_reports();
  }
};

std::optional<json> parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

TEST(StatsFields, DeltaAddResetConvention) {
  outer_stats before{.ops = 10, .ratio = 0.5, .cache = {.hits = 3, .misses = 1}};
  outer_stats after{.ops = 25, .ratio = 0.75, .cache = {.hits = 8, .misses = 4}};

  using sfg::obs::operator-;
  const outer_stats d = after - before;
  EXPECT_EQ(d.ops, 15u);
  EXPECT_DOUBLE_EQ(d.ratio, 0.25);
  EXPECT_EQ(d.cache.hits, 5u);
  EXPECT_EQ(d.cache.misses, 3u);

  outer_stats total{};
  stats_add(total, before);
  stats_add(total, d);
  EXPECT_EQ(total.ops, after.ops);
  EXPECT_EQ(total.cache.hits, after.cache.hits);

  stats_reset(total);
  EXPECT_EQ(total.ops, 0u);
  EXPECT_EQ(total.cache.misses, 0u);
}

TEST(StatsFields, ToJsonRecursesNestedStructs) {
  const outer_stats s{.ops = 7, .ratio = 1.5, .cache = {.hits = 2, .misses = 0}};
  const json j = stats_to_json(s);
  ASSERT_NE(j.find("ops"), nullptr);
  EXPECT_EQ(j.find("ops")->as_u64(), 7u);
  EXPECT_TRUE(j.find("ratio")->is_number());
  ASSERT_NE(j.find("cache"), nullptr);
  EXPECT_EQ(j.find("cache")->find("hits")->as_u64(), 2u);
}

TEST(StatsFields, ToRegistryFoldsWithPrefix) {
  obs_guard guard;
  set_metrics_enabled(true);
  auto& hits = metrics_registry::instance().get_counter("t.cache.hits");
  auto& ops = metrics_registry::instance().get_counter("t.ops");
  hits.reset();
  ops.reset();

  const outer_stats s{.ops = 4, .ratio = 0.5, .cache = {.hits = 6, .misses = 0}};
  stats_to_registry("t", s);
  stats_to_registry("t", s);  // caller folds deltas; two folds accumulate
  EXPECT_EQ(ops.value(), 8u);
  EXPECT_EQ(hits.value(), 12u);
  EXPECT_DOUBLE_EQ(
      metrics_registry::instance().get_gauge("t.ratio").value(), 0.5);
}

TEST(RunReport, DocumentShapeAndFileRoundTrip) {
  obs_guard guard;
  set_metrics_enabled(true);
  run_report r("unit-test");
  r.add_param("scale", json(12));
  r.add_section("extra", json("value"));

  const json doc = r.to_json();
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "sfg-run-report/1");
  EXPECT_EQ(doc.find("name")->as_string(), "unit-test");
  EXPECT_EQ(doc.find("params")->find("scale")->as_u64(), 12u);
  EXPECT_EQ(doc.find("extra")->as_string(), "value");
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_NE(doc.find("metrics")->find("counters"), nullptr);

  const std::string path = ::testing::TempDir() + "run_report_test.json";
  ASSERT_TRUE(r.write(path));
  const auto back = parse_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, doc);
  std::remove(path.c_str());
}

TEST(RunReport, WriteFailureReturnsFalse) {
  run_report r("unit-test");
  EXPECT_FALSE(r.write("/nonexistent-dir/sub/report.json"));
  EXPECT_FALSE(write_json_file("/nonexistent-dir/sub/x.json", json(1)));
}

TEST(RunReport, GatherJsonIsRankOrdered) {
  runtime::launch(4, [](runtime::comm& c) {
    json mine = json::object();
    mine["rank"] = c.rank();
    mine["payload"] = std::string(static_cast<std::size_t>(c.rank()) * 3, 'x');
    const json all = gather_json(c, mine);
    ASSERT_EQ(all.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r) {
      ASSERT_NE(all.at(r).find("rank"), nullptr);
      EXPECT_EQ(all.at(r).find("rank")->as_u64(), r);
    }
  });
}

TEST(RunReport, TraversalReportAppendsValidJsonEveryTime) {
  obs_guard guard;
  const std::string path = ::testing::TempDir() + "metrics_report_test.json";
  set_metrics_enabled(true);
  set_metrics_report_path(path);
  clear_traversal_reports();

  for (int i = 1; i <= 3; ++i) {
    json entry = json::object();
    entry["n"] = i;
    append_traversal_report(std::move(entry));
    // Whole-file rewrite: the report must be loadable after every append.
    const auto doc = parse_file(path);
    ASSERT_TRUE(doc.has_value()) << "after append " << i;
    EXPECT_EQ(doc->find("schema")->as_string(), "sfg-metrics/1");
    ASSERT_NE(doc->find("traversals"), nullptr);
    EXPECT_EQ(doc->find("traversals")->size(), static_cast<std::size_t>(i));
    EXPECT_NE(doc->find("metrics"), nullptr);
  }
  std::remove(path.c_str());
}

/// Acceptance: chaos-seeded BFS with full observability on, through both
/// traversal drivers — they share one instrumentation path
/// (core/traversal_observer.hpp), so every section must be there in both.
class Observability : public ::testing::TestWithParam<core::bfs_mode> {};

TEST_P(Observability, ChaosBfsProducesTraceReportAndMetrics) {
  const core::bfs_mode mode = GetParam();
  obs_guard guard;
  const std::string path = ::testing::TempDir() + "obs_acceptance_report_" +
                           core::bfs_mode_name(mode) + ".json";
  set_metrics_enabled(true);
  set_trace_enabled(true);
  set_metrics_report_path(path);
  clear_traversal_reports();
  trace_clear();
  metrics_registry::instance().reset_values();

  constexpr int kRanks = 4;
  const gen::rmat_config rc{.scale = 7, .edge_factor = 8, .seed = 99};
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());

  std::uint64_t executed_total = 0;
  runtime::launch(
      kRanks,
      [&](runtime::comm& c) {
        const auto range =
            gen::slice_for_rank(edges.size(), c.rank(), kRanks);
        std::vector<gen::edge64> mine(
            edges.begin() + static_cast<std::ptrdiff_t>(range.begin),
            edges.begin() + static_cast<std::ptrdiff_t>(range.end));
        auto g = graph::build_in_memory_graph(c, mine, {});
        core::hybrid_bfs_config cfg;
        cfg.mode = mode;
        auto result = core::run_bfs_mode(g, g.locate(edges.front().src), cfg);
        const auto executed = c.all_reduce(
            result.stats.visitors_executed, std::plus<>());
        if (c.rank() == 0) executed_total = executed;
      },
      {}, runtime::fault_params::chaos(7));

  ASSERT_GT(executed_total, 0u);

  // 1. Trace: the traversal and mailbox spans exist, attributed across
  //    ranks.  Only the async driver quiesces through termination waves;
  //    the level-synchronous one uses all_reduce.
  const json doc = trace_to_json();
  const json& events = *doc.find("traceEvents");
  std::set<std::string> names;
  std::set<std::int64_t> traversal_pids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json& ev = events.at(i);
    const std::string name = ev.find("name")->as_string();
    names.insert(name);
    if (name == "traversal") {
      traversal_pids.insert(ev.find("pid")->as_i64());
    }
  }
  std::vector<std::string> expected = {"traversal", "mailbox.flush"};
  if (mode == core::bfs_mode::async) expected.emplace_back("term.wave");
  for (const std::string& name : expected) {
    EXPECT_TRUE(names.contains(name)) << "missing trace span: " << name;
  }
  EXPECT_EQ(traversal_pids.size(), static_cast<std::size_t>(kRanks))
      << "each rank must own its traversal span (pid = rank)";

  // 2. Registry: the published traversal delta matches the real totals.
  const json snap = metrics_registry::instance().snapshot();
  const json* executed = snap.find("counters")->find(
      "traversal.visitors_executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_EQ(executed->as_u64(), executed_total);
  const json* sent = snap.find("counters")->find("comm.messages_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_GT(sent->as_u64(), 0u);

  // 3. Report: one sfg-metrics/1 entry with every shared section, and
  //    per-rank stats summing to the total.
  const auto report = parse_file(path);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->find("schema")->as_string(), "sfg-metrics/1");
  ASSERT_EQ(report->find("traversals")->size(), 1u);
  const json& entry = report->find("traversals")->at(0);
  std::vector<std::string> sections = {"ranks", "total", "per_rank",
                                       "straggler"};
  if (mode == core::bfs_mode::hybrid) sections.emplace_back("bfs");
  for (const std::string& key : sections) {
    EXPECT_NE(entry.find(key), nullptr) << "missing report section: " << key;
  }
  EXPECT_EQ(entry.find("ranks")->as_u64(), static_cast<std::uint64_t>(kRanks));
  ASSERT_EQ(entry.find("per_rank")->size(), static_cast<std::size_t>(kRanks));
  EXPECT_EQ(entry.find("total")->find("visitors_executed")->as_u64(),
            executed_total);
  std::uint64_t per_rank_sum = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(kRanks); ++r) {
    per_rank_sum += entry.find("per_rank")
                        ->at(r)
                        .find("visitors_executed")
                        ->as_u64();
  }
  EXPECT_EQ(per_rank_sum, executed_total);

  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Modes, Observability,
                         ::testing::Values(core::bfs_mode::async,
                                           core::bfs_mode::hybrid),
                         [](const auto& info) {
                           return std::string(core::bfs_mode_name(info.param));
                         });

}  // namespace
}  // namespace sfg::obs
