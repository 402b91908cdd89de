#include "obs/metrics.hpp"

#include <charconv>
#include <cstdlib>
// Constructs std::cerr before env_applied below can log a warning.
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sfg::obs {

namespace {

/// SFG_METRICS / programmatic report path, guarded for cross-rank access.
struct report_path_state {
  std::mutex mu;
  std::string path;
};

report_path_state& report_path() {
  static report_path_state s;
  return s;
}

}  // namespace

namespace detail {

constinit obs_toggles toggles{};

}  // namespace detail

namespace {

/// A path-valued switch: the variable's value, or null when unset/empty.
const char* env_path(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' ? env : nullptr;
}

/// The one reader for numeric switches: a whole decimal number in
/// [0, max].  Unset or empty gives nullopt.  Anything else that is not
/// such a number (a sign, a unit suffix, overflow) logs one warning naming
/// the variable and gives nullopt too, so the switch keeps its default.
std::optional<std::uint64_t> env_number(const char* name, std::uint64_t max) {
  const char* env = env_path(name);
  if (env == nullptr) return std::nullopt;
  const std::string_view text(env);
  const char* const last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc{} && end == last && v <= max) return v;
  SFG_LOG_WARN << name << '=' << text << " is not a whole number in [0, "
               << max << "]; keeping the default";
  return std::nullopt;
}

/// Applies the SFG_* environment to detail::toggles and the obs modules,
/// exactly once, from this file's static initialiser.  Any gate use links
/// this file in, so the initialiser always runs before main().
struct apply_env {
  apply_env() {
    using namespace detail;
    constexpr std::uint64_t kMaxCount =
        std::numeric_limits<std::uint32_t>::max();
    if (const char* path = env_path("SFG_METRICS")) {
      set_switch(kMetricsBit, true);
      set_metrics_report_path(path);
    }
    if (const char* path = env_path("SFG_TRACE")) {
      set_switch(kTraceBit, true);
      // One writer for the whole process: whatever was traced by exit time
      // lands at the SFG_TRACE path, no matter which layer traced it.  A
      // process that traced nothing (a validator run under the same
      // environment) leaves the file alone instead of emptying it.
      static std::string trace_path;
      trace_path = path;
      std::atexit([] {
        if (trace_event_count() > 0 || trace_dropped_count() > 0) {
          write_chrome_trace(trace_path);
        }
      });
    }
    if (const char* dir = env_path("SFG_TS_DIR")) set_ts_dir(dir);
    if (const auto n = env_number("SFG_TS_INTERVAL_MS", kMaxCount)) {
      set_ts_interval_ms(static_cast<std::uint32_t>(*n));
    }
    if (const auto n = env_number("SFG_SPANS", 1)) {
      set_switch(kSpansBit, *n == 1);
    }
    // Ring capacities (event_ring.hpp): a count of 0 turns the log's gate
    // off instead.
    const auto ring_env = [](const char* name, std::uint32_t bit,
                             void (*set_capacity)(std::size_t)) {
      const auto n = env_number(name, kMaxCount);
      if (!n) return;
      if (*n == 0) {
        set_switch(bit, false);
      } else {
        set_capacity(static_cast<std::size_t>(*n));
      }
    };
    ring_env("SFG_SPAN_EVENTS", kSpansBit, &set_span_capacity);
    ring_env("SFG_FLIGHT_EVENTS", kFlightBit, &set_flight_capacity);
    if (const char* path = env_path("SFG_FLIGHT_DUMP")) {
      set_flight_dump_path(path);
      install_flight_signal_dumps();
    }
    if (const auto n = env_number("SFG_MEM_BUDGET",
                                  std::numeric_limits<std::uint64_t>::max())) {
      set_mem_budget(*n);
    }
  }
} const env_applied;

}  // namespace

void set_metrics_enabled(bool on) { detail::set_switch(detail::kMetricsBit, on); }

void set_spans_enabled(bool on) { detail::set_switch(detail::kSpansBit, on); }

void set_mem_budget(std::uint64_t bytes) {
  detail::toggles.mem_budget.store(bytes, std::memory_order_relaxed);
  detail::set_switch(detail::kMemBudgetBit, bytes > 0);
}

std::string metrics_report_path() {
  auto& rp = report_path();
  const std::scoped_lock lock(rp.mu);
  return rp.path;
}

void set_metrics_report_path(std::string path) {
  auto& rp = report_path();
  const std::scoped_lock lock(rp.mu);
  rp.path = std::move(path);
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

struct metrics_registry::impl {
  mutable std::mutex mu;
  // unique_ptr values: handle addresses must survive map rehash/insertion.
  std::map<std::string, std::unique_ptr<counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<timer_metric>, std::less<>> timers;
  std::map<std::string, std::unique_ptr<histogram_metric>, std::less<>> histograms;
};

metrics_registry::impl& metrics_registry::state() const {
  static impl s;
  return s;
}

metrics_registry& metrics_registry::instance() {
  static metrics_registry r;
  return r;
}

counter& metrics_registry::get_counter(std::string_view name) {
  impl& s = state();
  const std::scoped_lock lock(s.mu);
  auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    it = s.counters.emplace(std::string(name), std::make_unique<counter>()).first;
  }
  return *it->second;
}

gauge& metrics_registry::get_gauge(std::string_view name) {
  impl& s = state();
  const std::scoped_lock lock(s.mu);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    it = s.gauges.emplace(std::string(name), std::make_unique<gauge>()).first;
  }
  return *it->second;
}

timer_metric& metrics_registry::get_timer(std::string_view name) {
  impl& s = state();
  const std::scoped_lock lock(s.mu);
  auto it = s.timers.find(name);
  if (it == s.timers.end()) {
    it = s.timers.emplace(std::string(name), std::make_unique<timer_metric>()).first;
  }
  return *it->second;
}

histogram_metric& metrics_registry::get_histogram(std::string_view name) {
  impl& s = state();
  const std::scoped_lock lock(s.mu);
  auto it = s.histograms.find(name);
  if (it == s.histograms.end()) {
    it = s.histograms.emplace(std::string(name), std::make_unique<histogram_metric>())
             .first;
  }
  return *it->second;
}

json metrics_registry::snapshot() const {
  impl& s = state();
  const std::scoped_lock lock(s.mu);
  json out = json::object();
  json counters = json::object();
  for (const auto& [name, c] : s.counters) counters[name] = c->value();
  out["counters"] = std::move(counters);
  json gauges = json::object();
  for (const auto& [name, g] : s.gauges) gauges[name] = g->value();
  out["gauges"] = std::move(gauges);
  json timers = json::object();
  for (const auto& [name, t] : s.timers) {
    json entry = json::object();
    entry["count"] = t->count();
    entry["total_ms"] = static_cast<double>(t->total_ns()) / 1e6;
    entry["max_ms"] = static_cast<double>(t->max_ns()) / 1e6;
    timers[name] = std::move(entry);
  }
  out["timers"] = std::move(timers);
  json histograms = json::object();
  for (const auto& [name, h] : s.histograms) histograms[name] = h->snapshot().to_json();
  out["histograms"] = std::move(histograms);
  return out;
}

void metrics_registry::reset_values() {
  impl& s = state();
  const std::scoped_lock lock(s.mu);
  for (auto& [name, c] : s.counters) c->reset();
  for (auto& [name, g] : s.gauges) g->reset();
  for (auto& [name, t] : s.timers) t->reset();
  for (auto& [name, h] : s.histograms) h->reset();
}

}  // namespace sfg::obs
