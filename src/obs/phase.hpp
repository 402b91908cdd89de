/// \file phase.hpp
/// Poll-loop phase attribution (DESIGN.md §10): nestable scoped timers
/// over a fixed phase enum, answering "where does the wall time of a
/// traversal actually go" — local visits vs. adjacency scanning vs.
/// mailbox packing/flushing vs. polling the transport vs. termination
/// control vs. external-memory I/O waits vs. plain idle spinning.  This is
/// the phase-wise breakdown Buluç & Madduri use as the primary lens on
/// distributed-BFS performance, made first-class.
///
/// Model: each in-process rank is one thread, so every rank owns a
/// thread-local set of per-phase *self-time* slots.  phase_scope nests:
/// a child scope's wall time is subtracted from its parent's self time,
/// so the slots partition accounted time — fractions of an interval sum
/// to at most 1 (the time-series sampler and report checker rely on
/// this).  Scopes deeper than kMaxPhaseDepth are counted into their
/// enclosing phase (the frame is simply not pushed).
///
/// Cost model, same discipline as metrics.hpp: everything is gated on
/// phase_on() (metrics OR time-series sampling enabled) — disabled, a
/// phase_scope is two predictable branches, no clock reads, no
/// allocation (tests/obs/metrics_test.cpp extends the counting-new proof
/// to phase scopes).  Enabled, a scope is two steady_clock reads and a
/// handful of thread-local adds; there are no atomics because slots are
/// single-writer and only ever read from the owning thread (the sampler
/// and the traversal's end-of-run fold both run on the rank's thread).
#pragma once

#include <cstdint>
#include <tuple>

#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"

namespace sfg::obs {

/// The fixed phase vocabulary of the traversal poll loop.
enum class phase : std::uint8_t {
  visit = 0,   ///< executing local visitors (Visitor::visit bodies)
  scan,        ///< walking adjacency slices (distributed_graph::for_each_*)
  mbox_pack,   ///< framing + aggregating records into mailbox arenas
  mbox_flush,  ///< stamping and handing packets to the transport
  poll,        ///< receiving: try_recv, packet processing, local drain
  term,        ///< termination-detection control (waves, reports)
  io_wait,     ///< blocked on the block device (page-cache miss/writeback)
  idle,        ///< poll-loop time not attributed to any phase above
};
inline constexpr std::size_t kPhaseCount = 8;

[[nodiscard]] const char* phase_name(phase p) noexcept;

/// Accumulated per-phase self time, in the shared stats-struct convention
/// (stats_fields.hpp) so it nests into traversal_stats and folds into the
/// registry as `traversal.phase.<name>_ns` counters.
struct phase_stats {
  std::uint64_t visit_ns = 0;
  std::uint64_t scan_ns = 0;
  std::uint64_t mbox_pack_ns = 0;
  std::uint64_t mbox_flush_ns = 0;
  std::uint64_t poll_ns = 0;
  std::uint64_t term_ns = 0;
  std::uint64_t io_wait_ns = 0;
  std::uint64_t idle_ns = 0;

  [[nodiscard]] std::uint64_t get(phase p) const noexcept {
    switch (p) {
      case phase::visit: return visit_ns;
      case phase::scan: return scan_ns;
      case phase::mbox_pack: return mbox_pack_ns;
      case phase::mbox_flush: return mbox_flush_ns;
      case phase::poll: return poll_ns;
      case phase::term: return term_ns;
      case phase::io_wait: return io_wait_ns;
      case phase::idle: return idle_ns;
    }
    return 0;
  }
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    return visit_ns + scan_ns + mbox_pack_ns + mbox_flush_ns + poll_ns +
           term_ns + io_wait_ns + idle_ns;
  }
};

namespace detail {

/// Out-of-line halves of phase_scope, called only while phase_on().
/// phase_enter returns false when the nesting stack is full (the scope
/// then stays disarmed and its time folds into the enclosing phase).
[[nodiscard]] bool phase_enter(phase p) noexcept;
void phase_exit() noexcept;

}  // namespace detail

/// RAII self-time scope.  Safe to nest; disabled cost is the phase_on()
/// branch only.  Both halves are forced inline: the scope sits on
/// per-record paths (routed_mailbox::route_record), and in a large
/// translation unit GCC's inliner otherwise may emit the constructor out
/// of line, turning that branch into a call per record.
class phase_scope {
 public:
  [[gnu::always_inline]] explicit phase_scope(phase p) noexcept {
    if (phase_on()) armed_ = detail::phase_enter(p);
  }
  [[gnu::always_inline]] ~phase_scope() {
    if (armed_) detail::phase_exit();
  }
  phase_scope(const phase_scope&) = delete;
  phase_scope& operator=(const phase_scope&) = delete;

 private:
  bool armed_ = false;
};

/// The calling thread's (rank's) accumulated self times.  Cheap struct
/// copy; callers diff two snapshots to attribute a window (a traversal, a
/// sampling interval).  Time inside still-open scopes is not included
/// until those scopes close.
[[nodiscard]] phase_stats phase_snapshot() noexcept;

/// Per-phase scope-entry counts for the calling thread (test hook).
[[nodiscard]] std::uint64_t phase_entries(phase p) noexcept;

/// Zero the calling thread's slots and entry counts (tests/benches).
/// Must not be called with scopes open.
void phase_clear_thread() noexcept;

}  // namespace sfg::obs

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.
template <>
struct sfg::obs::stats_traits<sfg::obs::phase_stats> {
  using S = sfg::obs::phase_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"visit_ns", &S::visit_ns},
      stats_field{"scan_ns", &S::scan_ns},
      stats_field{"mbox_pack_ns", &S::mbox_pack_ns},
      stats_field{"mbox_flush_ns", &S::mbox_flush_ns},
      stats_field{"poll_ns", &S::poll_ns},
      stats_field{"term_ns", &S::term_ns},
      stats_field{"io_wait_ns", &S::io_wait_ns},
      stats_field{"idle_ns", &S::idle_ns});
};
