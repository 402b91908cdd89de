/// \file critpath.hpp
/// Post-traversal critical-path analysis (DESIGN.md §14): turns the
/// per-rank span logs (span.hpp) into the longest cross-rank dependency
/// chain from traversal start to finish, with per-segment blame.
///
/// The analyzer is pure JSON-in/JSON-out so it links into sfg_obs with no
/// runtime dependency: the traversal drivers gather each rank's
/// span_rank_json() fragment with obs::gather_json (run_report.hpp) and
/// rank 0 embeds critpath_analyze() of the gathered array as the
/// traversal entry's "critpath" section.
///
/// Algorithm: each rank's phase segments partition its wall time exactly
/// (phase.cpp records maximal self-time intervals), so the analyzer walks
/// *backward* from the last rank to leave the traversal, attributing time
/// in place — and jumps across ranks when the time was spent waiting:
///   * a poll/idle segment containing a matched packet delivery follows
///     the packet back to its sender's flush timestamp, emitting a "wire"
///     segment for the in-flight time (matched exactly by the
///     receiver-unique packet seq stamped in the wire header, PR 3/7);
///   * a term segment jumps to the last rank to enter the collective —
///     the straggler whose preceding work delayed everyone.
/// The result is a contiguous, non-overlapping partition of the traversal
/// window, so the emitted `sfg-critpath/1` section trivially satisfies
/// the chain-connectivity and coverage invariants critpath_validate
/// checks (and `sfg_obs check --critpath` enforces in CI).
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace sfg::obs {

/// Analyze an array of gathered span fragments (one span_rank_json() per
/// rank) into an `sfg-critpath/1` section:
///   {"schema": "sfg-critpath/1", "wall_us", "t0_us", "t1_us",
///    "coverage", "ranks": [{"rank", "recorded", "dropped"}],
///    "levels": [{"level", "ts_us", "bottom_up"}],          (BFS runs only)
///    "segments": [{"rank", "kind", "t0_us", "t1_us", "dur_us", "frac",
///                  ("src", "dst" for wire)}],    time-ordered, contiguous
///    "blame": [{"rank", "kind", "dur_us", "frac"}]}     ranked by duration
/// Returns a null json when the fragments hold no usable traversal window
/// (no trav_begin/trav_end markers) — callers skip the embed.
[[nodiscard]] json critpath_analyze(const json& rank_spans);

/// Validate an `sfg-critpath/1` section: schema tag, a positive window,
/// segments forming a connected start->finish chain with no overlaps,
/// durations consistent with the timestamps, blame fractions summing to
/// <= 1.0 of the measured wall and covering >= 90% of it, and the blame
/// table totalling the segments.  Appends human-readable problems to
/// *errors (when non-null); returns true when the section is valid.
bool critpath_validate(const json& section, std::vector<std::string>* errors);

}  // namespace sfg::obs
