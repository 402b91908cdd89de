/// \file span.hpp
/// Per-rank critical-path span log (DESIGN.md §14): a fixed-capacity,
/// zero-alloc ring of typed time intervals and markers that the
/// post-traversal analyzer (critpath.hpp) links into a cross-rank
/// happens-before chain.  Three families of entries:
///
///   * phase segments — maximal *self-time* intervals recorded by the
///     phase profiler's enter/exit hooks (phase.cpp): each rank's wall
///     time partitions exactly into `[t0, t1)` intervals typed by the
///     innermost active phase (visit, poll, io_wait, ...);
///   * mailbox edges — a send marker per packet flush (stamped with the
///     receiver-unique packet seq from the wire header) and a matching
///     deliver marker on the receiving rank, giving the analyzer exact
///     send-ts -> deliver-ts edges with no sampling dependence;
///   * traversal structure — begin/end markers bounding the analysis
///     window, plus BFS level markers from the hybrid driver.
///
/// The rings are the second log of the shared per-rank event ring
/// (event_ring.hpp), beside the flight recorder's: gated on the
/// `spans_on()` bit (SFG_SPANS, metrics.hpp), and no allocation after a
/// rank's first record (tests/obs/metrics_test.cpp gates both the
/// disabled and the enabled steady state with a counting operator new).
/// All timestamps come from trace_now_us() (trace.hpp) — one process-wide
/// steady epoch, so cross-rank comparisons need no clock alignment.
///
/// Configured by SFG_SPANS and SFG_SPAN_EVENTS (metrics.hpp lists every
/// switch).
#pragma once

#include <cstdint>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace sfg::obs {

/// What the interval/marker means.  Values are stable within a report
/// (emitted by name).
enum class span_kind : std::uint32_t {
  phase_seg,   ///< [t0,t1) self-time segment; a = phase id, b = stack depth
  mbox_send,   ///< marker: packet handed to comm; a = next hop, b = seq
  mbox_recv,   ///< marker: packet accepted by receiver; a = source, b = seq
  bfs_level,   ///< marker: level barrier passed; a = level, b = bottom_up
  trav_begin,  ///< marker: traversal entered; a = ordinal, b = nranks
  trav_end,    ///< marker: traversal left; a = ordinal, b = nranks
};

[[nodiscard]] const char* span_kind_name(span_kind k) noexcept;

namespace detail {

/// Out-of-line half of span_record: appends to the calling rank's ring.
/// Never allocates after the ring exists.
void span_append(span_kind k, std::uint64_t t0_us, std::uint64_t t1_us,
                 std::uint64_t a, std::uint64_t b) noexcept;

}  // namespace detail

/// Record one interval for the calling rank.  Disabled: one branch.
inline void span_record(span_kind k, std::uint64_t t0_us, std::uint64_t t1_us,
                        std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
  if (!spans_on()) return;
  detail::span_append(k, t0_us, t1_us, a, b);
}

/// Record a zero-length marker stamped `trace_now_us()`.  Disabled: one
/// branch, no clock read.
void span_mark(span_kind k, std::uint64_t a = 0, std::uint64_t b = 0) noexcept;

/// Ring capacity per rank (power of two; SFG_SPAN_EVENTS or default 16384).
[[nodiscard]] std::size_t span_capacity();
/// Change capacity; existing rings are discarded.  Setup/test-time only —
/// must not race live writers.
void set_span_capacity(std::size_t cap);

/// Drop all recorded spans (in-place; rings and cached pointers stay
/// valid).  Tests use this between scenarios.
void span_clear();

/// Total spans recorded by the calling thread's rank since the last clear
/// (including overwritten ones) — test hook for wrap-around.
[[nodiscard]] std::uint64_t span_recorded_here() noexcept;

/// The calling rank's ring as one JSON fragment for the collective gather
/// (critpath.hpp):
///   {"rank": r, "recorded": n, "dropped": d,
///    "spans": [{"k": kind, "t0": us, "t1": us, "a": .., "b": ..}, ...]}
/// Spans are oldest-to-newest among those still in the ring.
[[nodiscard]] json span_rank_json();

}  // namespace sfg::obs
