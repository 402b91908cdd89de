/// Start-up environment: metrics.cpp's static initialiser applies the
/// event-ring knobs (SFG_FLIGHT_EVENTS, SFG_SPAN_EVENTS, SFG_FLIGHT_DUMP)
/// before main.  The ctest obs_env_applies_ring_knobs runs this suite with
/// them set; without them it skips.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>

#include "obs/flight.hpp"
#include "obs/span.hpp"

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

}  // namespace
}  // namespace sfg::obs
