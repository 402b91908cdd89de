/// \file flight.hpp
/// Per-rank flight recorder (DESIGN.md §9): a fixed-capacity, zero-alloc
/// ring buffer of the last N interesting runtime events per rank — queue
/// batches, mailbox flushes/packets, termination waves, injected faults.
/// It is the black box: enabled by default, cheap enough to leave on
/// (4 relaxed stores + one relaxed fetch_add per event), and dumped as
/// `sfg-flight/1` JSON when something goes wrong — a rank fault
/// (runtime::launch catches the exception), a chaos-harness test failure,
/// SIGABRT/SIGTERM (when SFG_FLIGHT_DUMP is set), or an explicit
/// flight_dump() call.
///
/// The rings are one log of the shared per-rank event ring
/// (event_ring.hpp); the span log (span.hpp) is the other.  A dump racing
/// live writers reads cleanly but may tear the one in-flight event per
/// rank, the accepted black-box tradeoff (dumps are for post-mortems, not
/// accounting).
///
/// Configured by SFG_FLIGHT_EVENTS and SFG_FLIGHT_DUMP (metrics.hpp lists
/// every switch).  SFG_FLIGHT_DUMP is a .json file path or a directory
/// (per-process sfg_flight_<pid>.json), and setting it also installs
/// best-effort SIGABRT / SIGTERM dump handlers.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace sfg::obs {

/// What happened.  Values are stable within a dump (emitted by name).
enum class flight_kind : std::uint32_t {
  traversal_begin,  ///< a = traversal ordinal, b = nranks
  traversal_end,    ///< a = visitors executed (this rank), b = wall us
  queue_batch,      ///< a = visitors executed in the batch, b = queue depth after
  mbox_flush,       ///< a = payload bytes flushed, b = routing hop (0 = final)
  mbox_packet,      ///< a = records delivered, b = payload bytes
  mbox_dup_drop,    ///< a = source rank, b = duplicate seq
  mbox_reject,      ///< a = source rank, b = packet bytes
  term_wave,        ///< a = wave ordinal
  term_report,      ///< a = sent count, b = received count
  term_done,        ///< a = wave ordinal that proved quiescence
  fault_stall,      ///< a = stall us (injected mid-traversal stall)
  fault_duplicate,  ///< a = destination rank (injected duplicated packet)
  fault_delay,      ///< a = destination rank, b = delay us (injected)
  rank_fault,       ///< a = rank that threw; recorded just before poison
  mem_pressure,     ///< a = level entered (mem_pressure_level), b = accounted bytes
};

[[nodiscard]] const char* flight_kind_name(flight_kind k) noexcept;

namespace detail {

/// Out-of-line half of flight_record: appends to the calling rank's ring.
/// Never allocates after the ring exists; the first event from a rank
/// allocates its ring once.
void flight_append(flight_kind k, std::uint64_t a, std::uint64_t b) noexcept;

/// Install the SIGTERM / SIGABRT dump handlers (once per process).
void install_flight_signal_dumps();

}  // namespace detail

/// The gate: a bit of the shared toggle word that defaults to ON (the
/// recorder is the black box — it must already be running when the fault
/// happens).
[[nodiscard]] inline bool flight_on() noexcept {
  return detail::any_on(detail::kFlightBit);
}

void set_flight_enabled(bool on);

/// Ring capacity per rank (power of two).
[[nodiscard]] std::size_t flight_capacity();
/// Change capacity; existing rings are discarded (capacity must apply
/// uniformly for the dump's drop accounting to be meaningful).
void set_flight_capacity(std::size_t cap);

/// Record one event for the calling rank.  Disabled: one branch.
inline void flight_record(flight_kind k, std::uint64_t a = 0,
                          std::uint64_t b = 0) noexcept {
  if (!flight_on()) return;
  detail::flight_append(k, a, b);
}

/// Drop all recorded events (rings are freed; rank ids persist only in
/// future events).  Tests use this between scenarios.
void flight_clear();

/// Total events recorded by the calling thread's rank since the last
/// clear (including overwritten ones) — test hook for wrap-around.
[[nodiscard]] std::uint64_t flight_recorded_here() noexcept;

/// Everything recorded, as an `sfg-flight/1` document:
///   {"schema": "sfg-flight/1", "why": why, "capacity": N,
///    "ranks": [{"rank": r, "recorded": n, "dropped": d,
///               "events": [{"ts_us", "kind", "a", "b"}, ...]}]}
/// Events per rank are oldest-to-newest among those still in the ring.
[[nodiscard]] json flight_to_json(const std::string& why);

/// Serialize to an explicit path.  Returns false if the file can't open.
bool flight_write(const std::string& path, const std::string& why);

/// Serialize to the configured dump location (SFG_FLIGHT_DUMP or
/// set_flight_dump_path); silently a no-op when none is configured, so
/// fault paths can call it unconditionally without littering test runs.
void flight_dump(const std::string& why);

/// Where flight_dump writes ("" = nowhere).  A directory gets a
/// per-process sfg_flight_<pid>.json inside it.
[[nodiscard]] std::string flight_dump_path();
void set_flight_dump_path(std::string path);

}  // namespace sfg::obs
