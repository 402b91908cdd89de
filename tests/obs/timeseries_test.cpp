/// Time-series sampler tests (obs/timeseries.hpp): interval gating,
/// forced flush, the JSONL file format, and the shared validator's
/// positive and negative paths.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "util/log.hpp"

namespace sfg::obs {
namespace {

namespace fs = std::filesystem;

/// Fresh output directory per test + full teardown: sampling off, sampler
/// table dropped, files removed — later tests (and parallel ctest
/// binaries) never see this test's state.
struct ts_fixture {
  fs::path dir;
  explicit ts_fixture(const char* name)
      : dir(fs::temp_directory_path() /
            (std::string("sfg_ts_test_") + name + "_" +
             std::to_string(::getpid()))) {
    fs::remove_all(dir);
    set_ts_dir(dir.string());
  }
  ~ts_fixture() {
    set_ts_interval_ms(0);
    ts_clear();
    set_ts_dir(".");
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

TEST(Timeseries, DisabledPollRecordsNothing) {
  ts_fixture fx("disabled");
  set_ts_interval_ms(0);
  for (int i = 0; i < 100; ++i) ts_poll();
  EXPECT_EQ(ts_samples_recorded(), 0u);
  EXPECT_FALSE(fs::exists(fx.dir));
}

TEST(Timeseries, IntervalGatesSampling) {
  ts_fixture fx("interval");
  // Interval far beyond the test's runtime: polls must not sample (the
  // sampler is created on the first poll, which also anchors last_ns).
  set_ts_interval_ms(60'000);
  for (int i = 0; i < 1000; ++i) ts_poll();
  EXPECT_EQ(ts_samples_recorded(), 0u);
  // A forced flush samples regardless of the interval.
  ts_flush();
  EXPECT_EQ(ts_samples_recorded(), 1u);
}

/// Every line of the calling rank's stream, parsed.
std::vector<json> read_lines() {
  std::ifstream in(ts_rank_file(util::thread_rank()));
  std::vector<json> out;
  for (std::string line; std::getline(in, line);) {
    auto parsed = json::parse(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    if (parsed) out.push_back(std::move(*parsed));
  }
  return out;
}

TEST(Timeseries, EveryForcedSampleIsOneLine) {
  ts_fixture fx("lines");
  set_ts_interval_ms(60'000);
  const std::size_t total = 74;
  for (std::size_t i = 0; i < total; ++i) ts_flush();
  EXPECT_EQ(ts_samples_recorded(), total);
  // One line per sample, seq contiguous from 0; the validator also
  // requires ts_us to increase strictly, even for back-to-back samples.
  const std::vector<json> lines = read_lines();
  ASSERT_EQ(lines.size(), total);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("seq")->as_u64(), i);
  }
  std::vector<std::string> errors;
  EXPECT_TRUE(ts_validate_file(ts_rank_file(util::thread_rank()), &errors))
      << (errors.empty() ? "?" : errors.front());
}

TEST(Timeseries, EmitsValidJsonlThatTheValidatorAccepts) {
  ts_fixture fx("emit");
  set_ts_interval_ms(60'000);
  // Put some attributed phase time into the window so fractions are
  // exercised (phase_on() is true because the ts toggle is on).
  {
    const phase_scope ps(phase::visit);
  }
  for (int i = 0; i < 5; ++i) ts_flush();

  const std::string path = ts_rank_file(util::thread_rank());
  ASSERT_TRUE(fs::exists(path));
  std::vector<std::string> errors;
  EXPECT_TRUE(ts_validate_file(path, &errors))
      << (errors.empty() ? "?" : errors.front());
  EXPECT_TRUE(errors.empty());

  // Spot-check the first line's shape directly.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto parsed = json::parse(line);
  ASSERT_TRUE(parsed && parsed->is_object());
  EXPECT_EQ(parsed->find("schema")->as_string(), "sfg-timeseries/1");
  ASSERT_NE(parsed->find("phase"), nullptr);
  ASSERT_NE(parsed->find("gauges"), nullptr);
  ASSERT_NE(parsed->find("rates"), nullptr);
  ASSERT_NE(parsed->find("totals"), nullptr);
  EXPECT_EQ(parsed->find("phase")->size(), kPhaseCount);
}

TEST(Timeseries, TrackedCounterDeltasBecomeRates) {
  ts_fixture fx("rates");
  set_ts_interval_ms(60'000);
  ts_flush();  // anchor sample: establishes prev totals
  auto& c = metrics_registry::instance().get_counter(ts_tracked_name(0));
  c.add_raw(1000);
  ts_flush();
  const std::vector<json> lines = read_lines();
  ASSERT_EQ(lines.size(), 2u);
  const json* totals = lines.back().find("totals");
  const json* rates = lines.back().find("rates");
  ASSERT_TRUE(totals != nullptr && rates != nullptr);
  ASSERT_EQ(rates->size(), kTsTracked);
  const std::string key = totals->items().front().first;
  EXPECT_GE(totals->find(key)->as_u64(), 1000u);
  EXPECT_GT(rates->find(key)->as_double(), 0.0)
      << "a counter bump must surface as a rate";
  for (const auto& [name, rate] : rates->items()) {
    EXPECT_GE(rate.as_double(), 0.0) << name;
  }
}

TEST(Timeseries, ValidatorRejectsMalformedFiles) {
  ts_fixture fx("invalid");
  fs::create_directories(fx.dir);

  const auto write_file = [&](const char* name, const std::string& body) {
    const fs::path p = fx.dir / name;
    std::ofstream out(p);
    out << body;
    return p.string();
  };

  std::vector<std::string> errors;
  // Empty file: a rank that sampled nothing is a telemetry bug.
  EXPECT_FALSE(ts_validate_file(write_file("empty.jsonl", ""), &errors));
  EXPECT_FALSE(errors.empty());

  errors.clear();
  EXPECT_FALSE(
      ts_validate_file(write_file("garbage.jsonl", "not json\n"), &errors));

  errors.clear();
  EXPECT_FALSE(ts_validate_file(
      write_file("badschema.jsonl",
                 R"({"schema":"wrong/1","rank":0,"seq":0,"ts_us":1,)"
                 R"("interval_us":1,"phase":{},"gauges":{},"rates":{}})"
                 "\n"),
      &errors));

  // seq/ts_us must strictly increase line to line.
  errors.clear();
  const std::string good =
      R"({"schema":"sfg-timeseries/1","rank":0,"seq":1,"ts_us":10,)"
      R"("interval_us":5,"phase":{"visit":0.5},"gauges":{},"rates":{"x":1.0}})";
  EXPECT_FALSE(ts_validate_file(
      write_file("backwards.jsonl", good + "\n" + good + "\n"), &errors));

  // Negative rate.
  errors.clear();
  EXPECT_FALSE(ts_validate_file(
      write_file("negrate.jsonl",
                 R"({"schema":"sfg-timeseries/1","rank":0,"seq":0,"ts_us":1,)"
                 R"("interval_us":1,"phase":{},"gauges":{},)"
                 R"("rates":{"x":-2.0}})"
                 "\n"),
      &errors));

  // Phase fractions summing above 1.
  errors.clear();
  EXPECT_FALSE(ts_validate_file(
      write_file("overphase.jsonl",
                 R"({"schema":"sfg-timeseries/1","rank":0,"seq":0,"ts_us":1,)"
                 R"("interval_us":1,"phase":{"visit":0.8,"poll":0.7},)"
                 R"("gauges":{},"rates":{}})"
                 "\n"),
      &errors));

  // And the well-formed single line passes.
  errors.clear();
  EXPECT_TRUE(
      ts_validate_file(write_file("good.jsonl", good + "\n"), &errors))
      << (errors.empty() ? "?" : errors.front());
}

TEST(Timeseries, ReconfigurationStartsFreshFiles) {
  ts_fixture fx("reconf");
  set_ts_interval_ms(60'000);
  for (int i = 0; i < 3; ++i) ts_flush();
  EXPECT_EQ(ts_samples_recorded(), 3u);
  // Changing the directory drops samplers; the next flush starts a fresh
  // file (and a fresh seq sequence) under the new location.
  const fs::path dir2 = fx.dir / "second";
  set_ts_dir(dir2.string());
  ts_flush();
  EXPECT_EQ(ts_samples_recorded(), 1u);
  EXPECT_TRUE(fs::exists(ts_rank_file(util::thread_rank())));
  std::vector<std::string> errors;
  EXPECT_TRUE(ts_validate_file(ts_rank_file(util::thread_rank()), &errors));
}

}  // namespace
}  // namespace sfg::obs
