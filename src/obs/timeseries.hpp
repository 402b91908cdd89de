/// \file timeseries.hpp
/// Live time-series telemetry (DESIGN.md §10): a poll-driven, per-rank
/// sampler that turns the process-wide metrics registry plus the rank's
/// phase-attribution slots (phase.hpp) into rate samples while a
/// traversal is *running* — the antidote to the post-mortem-only report
/// path, whose numbers only land at do_traversal exit.
///
/// Driving model: there is no sampler thread.  Each rank's poll loop
/// calls ts_poll() once per iteration; when SFG_TS_INTERVAL_MS has
/// elapsed since the rank's last sample, the sampler diffs a fixed set of
/// registry counters into per-second rates, reads the live straggler
/// gauges and the rank's phase self-times (as fractions of the elapsed
/// interval, summing to at most 1), and appends one `sfg-timeseries/1`
/// JSONL line to the rank's file under SFG_TS_DIR (flushed per line, so
/// `sfg_obs top` and `tail -f` see it live).  The file is the product;
/// the sampler keeps no samples in memory.
/// ts_flush() forces a final sample at traversal end, so even a traversal
/// shorter than the interval leaves at least one line per rank.
///
/// Cost model: disabled (SFG_TS_INTERVAL_MS unset/0), ts_poll is one
/// relaxed load and one predictable branch — no clock read, no allocation
/// (the counting-new test covers it).  Enabled, the per-poll cost between
/// samples is one clock read; taking a sample writes one line.  The
/// sampler itself is allocation-free in the steady state: counter/gauge
/// handles are resolved once, and the line buffer's capacity persists
/// across samples.
///
/// Configured by SFG_TS_INTERVAL_MS and SFG_TS_DIR (metrics.hpp lists
/// every switch); rank r writes <dir>/sfg_ts_rank<r>.jsonl.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace sfg::obs {

/// Registry counters the sampler tracks (ts_tracked_name to enumerate).
inline constexpr std::size_t kTsTracked = 10;
[[nodiscard]] const char* ts_tracked_name(std::size_t i) noexcept;

namespace detail {

/// Out-of-line slow half: resolves the calling rank's sampler and fires
/// if due (or forced).  Called only while ts_on().
void ts_poll_slow(bool force);

}  // namespace detail

/// Poll-loop hook: sample if the interval has elapsed.  Disabled: one
/// relaxed load + branch.
inline void ts_poll() {
  if (ts_on()) detail::ts_poll_slow(false);
}

/// Force a sample now (traversal end), so short traversals still emit.
inline void ts_flush() {
  if (ts_on()) detail::ts_poll_slow(true);
}

/// Programmatic configuration (tests/CLI); the env vars are the defaults.
/// Changing either drops existing samplers (files close; the next poll
/// starts fresh ones under the new config).  0 disables sampling.
void set_ts_interval_ms(std::uint32_t ms);
[[nodiscard]] std::uint32_t ts_interval_ms();
void set_ts_dir(std::string dir);
[[nodiscard]] std::string ts_dir();

/// The calling rank's JSONL path under the current directory config.
[[nodiscard]] std::string ts_rank_file(int rank);

/// Test hook: samples the calling thread's rank has taken (0 for a rank
/// with no sampler).
[[nodiscard]] std::uint64_t ts_samples_recorded();

/// Drop all samplers (close files).  Next poll under an enabled config
/// recreates them.
void ts_clear();

/// Validate one sfg-timeseries/1 JSONL file: every line parses as an
/// object with the schema tag and numeric rank/seq/ts_us/interval_us;
/// seq and ts_us strictly increase; every rate is non-negative; phase
/// fractions lie in [0, 1] and sum to at most 1.  An empty file fails
/// (a rank that sampled nothing is a telemetry bug — ts_flush guarantees
/// one line per traversal).  Appends one message per problem to *errors
/// (if non-null); returns true when the file is valid.  Shared by
/// `sfg_obs check --timeseries` and the chaos acceptance test.
bool ts_validate_file(const std::string& path,
                      std::vector<std::string>* errors);

}  // namespace sfg::obs
