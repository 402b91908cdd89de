/// Start-up environment: metrics.cpp's static initialiser applies the
/// SFG_* switches before main.  The ctest obs_env_applies_ring_knobs runs
/// ObsEnv.* with the event-ring knobs (SFG_FLIGHT_EVENTS, SFG_SPAN_EVENTS,
/// SFG_FLIGHT_DUMP) set, and obs_env_rejects_malformed_numbers runs
/// ObsEnvMalformed.* with malformed numeric switches; without them both
/// skip.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace sfg::obs {
namespace {

const char* env_or_null(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

/// What a ring-capacity knob must produce: the count rounded up to a
/// power of two, or the log's gate off for a non-positive count.
void expect_capacity(const char* value, std::size_t capacity, bool gate_on) {
  const long n = std::strtol(value, nullptr, 10);
  if (n <= 0) {
    EXPECT_FALSE(gate_on) << "a non-positive count must disable the log";
    return;
  }
  const auto want = static_cast<std::size_t>(n);
  EXPECT_EQ(capacity, std::bit_ceil(want));
  EXPECT_TRUE(std::has_single_bit(capacity));
  EXPECT_GE(capacity, want);
}

TEST(ObsEnv, RingKnobsMatchEnvironment) {
  const char* flight = env_or_null("SFG_FLIGHT_EVENTS");
  const char* spans = env_or_null("SFG_SPAN_EVENTS");
  const char* dump = env_or_null("SFG_FLIGHT_DUMP");
  if (flight == nullptr && spans == nullptr && dump == nullptr) {
    GTEST_SKIP() << "SFG_FLIGHT_EVENTS, SFG_SPAN_EVENTS, SFG_FLIGHT_DUMP unset";
  }
  if (flight != nullptr) {
    expect_capacity(flight, flight_capacity(), flight_on());
  }
  if (spans != nullptr) expect_capacity(spans, span_capacity(), spans_on());
  if (dump != nullptr) {
    EXPECT_EQ(flight_dump_path(), std::string(dump));
  }
}

/// True when `name` holds a value the strict reader rejects: not a whole
/// decimal number, or one above `max`.
bool malformed(const char* name, std::uint64_t max) {
  const char* v = env_or_null(name);
  if (v == nullptr) return false;
  const std::string_view text(v);
  std::uint64_t n = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  return ec != std::errc{} || end != text.data() + text.size() || n > max;
}

TEST(ObsEnvMalformed, NumericSwitchesKeepTheirDefaults) {
  constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
  bool any = false;
  if (malformed("SFG_FLIGHT_EVENTS", kMaxCount)) {
    any = true;
    EXPECT_TRUE(flight_on());
    EXPECT_EQ(flight_capacity(), 1024u);
  }
  if (malformed("SFG_SPAN_EVENTS", kMaxCount)) {
    any = true;
    EXPECT_EQ(span_capacity(), 16384u);
  }
  if (malformed("SFG_SPANS", 1)) {
    any = true;
    EXPECT_FALSE(spans_on());
  }
  if (malformed("SFG_TS_INTERVAL_MS", kMaxCount)) {
    any = true;
    EXPECT_EQ(ts_interval_ms(), 0u);
    EXPECT_FALSE(ts_on());
  }
  if (malformed("SFG_MEM_BUDGET", std::numeric_limits<std::uint64_t>::max())) {
    any = true;
    EXPECT_EQ(mem_budget(), 0u);
  }
  if (!any) GTEST_SKIP() << "no malformed numeric SFG_* switch set";
}

}  // namespace
}  // namespace sfg::obs
