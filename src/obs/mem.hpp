/// \file mem.hpp
/// Per-rank, per-subsystem memory attribution (DESIGN.md §15): the
/// bytes-resident sibling of the flight/span recorders.  Every big
/// allocator in the engine — mailbox aggregation arenas, the page-cache
/// frame pool, the bucket-queue rings and spill heap, the
/// dual-representation frontier, the replicated placement stream, the
/// SNE edge cache, and the obs rings themselves — charges what it holds
/// against a fixed subsystem enum, and releases it when the capacity
/// leaves.  The ledger answers the question the paper's premise makes
/// first-class ("DRAM per node is the scarce resource"): *where did the
/// resident bytes go*, per rank, right now and at peak.
///
/// Cost model mirrors flight.hpp/span.hpp: one cached-bool gate
/// (`mem_on()`, metrics.hpp — the data gate or an armed SFG_MEM_BUDGET),
/// per-rank slots of relaxed atomics, and no allocation on the charge
/// path after a rank's slot exists — for both the disabled and the armed
/// state (tests/obs/mem_alloc_test.cpp gates both with a counting
/// operator new).
///
/// Charging idiom: owning structures embed a `mem_tracker` and call
/// `set(bytes)` with their current capacity at every point it can change.
/// The tracker remembers what it charged and to which rank's slot, so
/// teardown (its destructor) always returns the ledger to baseline even
/// if the gate flipped mid-life — a tracker that never charged stays a
/// single compare; one that did applies exact deltas.
///
/// Ground truth: `mem_sample_rss()` reads `/proc/self/statm` and
/// `getrusage(RUSAGE_SELF)` without allocating (the time-series sampler
/// calls it from `ts_poll`), and the gathered `sfg-mem/1` report section
/// carries the accounted-vs-RSS coverage ratio so drift between the
/// ledger and reality is visible, not hidden.
///
/// Soft budget: SFG_MEM_BUDGET arms a three-level pressure ladder
/// (ok/soft/hard) evaluated against the process-wide accounted total on
/// every charge.  Transitions are recorded in the flight recorder
/// (flight_kind::mem_pressure) and the `mem.pressure_*` counter family;
/// registered callbacks (page cache shrinks its frame pool, see
/// page_cache.cpp) are dispatched from `mem_pressure_poll()` — called
/// from the visitor poll loop, never from inside a charge, so a callback
/// may take subsystem locks without deadlocking against the charge site
/// that triggered the transition.
///
/// Configured by SFG_MEM_BUDGET (metrics.hpp lists every switch).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"

namespace sfg::obs {

/// Where the bytes live.  Values are stable within a report (emitted by
/// name); `other` is the catch-all for one-off charges.
enum class mem_subsystem : std::uint32_t {
  mailbox_arena,      ///< per-channel aggregation arenas + local double buffer
  cache_frames,       ///< page-cache frame pool backing buffers
  queue_buckets,      ///< bucket-queue rings, staged runs, spill heap
  frontier,           ///< dual-representation frontier (bitmap + sparse)
  builder_scratch,    ///< replicated placement: gathered stream + owners
  partitioner_cache,  ///< SNE bounded edge cache + endpoint index
  obs,                ///< flight/span rings, time-series samplers
  other,              ///< anything not yet attributed
};

inline constexpr std::size_t kMemSubsystems = 8;

[[nodiscard]] const char* mem_subsystem_name(mem_subsystem s) noexcept;

/// The budget ladder: `ok` below the soft threshold, `soft` at 3/4 of the
/// budget, `hard` at the budget itself.  Downward transitions use wider
/// thresholds (ok below 1/2, soft below 7/8) so a shrink that frees just
/// past a boundary doesn't flap.
enum class mem_pressure_level : std::uint32_t { ok = 0, soft = 1, hard = 2 };

[[nodiscard]] const char* mem_pressure_name(mem_pressure_level p) noexcept;

namespace detail {

/// One rank's ledger: current/peak per subsystem plus the rank total.
/// Single concurrent-writer per subsystem in practice (a rank charges its
/// own structures), but all fields are relaxed atomics so cross-thread
/// teardown and readers need no lock.
struct mem_rank_slots {
  std::atomic<std::uint64_t> current[kMemSubsystems] = {};
  std::atomic<std::uint64_t> peak[kMemSubsystems] = {};
  std::atomic<std::uint64_t> total_current{0};
  std::atomic<std::uint64_t> total_peak{0};
};

/// Resolve (create on first use) the slot block for `rank` (-1 = main
/// thread).  Allocates only on a rank's first charge; pointers stay valid
/// for the process lifetime (mem_clear zeroes in place).
[[nodiscard]] mem_rank_slots* mem_slots_for(int rank);

/// Apply a signed delta to one subsystem of one resolved slot block:
/// current +=, peak = max(peak, current), process totals, and — when a
/// budget is armed — the pressure-ladder evaluation.  Negative deltas
/// saturate at zero (unpaired releases must not wrap).  Allocation-free.
void mem_apply(mem_rank_slots* slots, mem_subsystem s,
               std::int64_t delta) noexcept;

void mem_pressure_poll_slow();

}  // namespace detail

/// Embedded byte ledger for one owning structure.  Call `set(bytes)` with
/// the structure's current capacity whenever it can change: equal values
/// return after one compare, the disabled-and-never-charged path is one
/// more relaxed load, and a real change applies the exact delta to the
/// rank slot resolved at first charge (so release always balances the
/// charge, whatever thread runs the destructor).  Not thread-safe — guard
/// with the owner's own synchronization, like the stats structs.
class mem_tracker {
 public:
  constexpr explicit mem_tracker(mem_subsystem s) noexcept : sub_(s) {}
  ~mem_tracker() { set(0); }

  mem_tracker(const mem_tracker&) = delete;
  mem_tracker& operator=(const mem_tracker&) = delete;
  mem_tracker(mem_tracker&& o) noexcept
      : sub_(o.sub_), charged_(o.charged_), slot_(o.slot_) {
    o.charged_ = 0;
    o.slot_ = nullptr;
  }
  mem_tracker& operator=(mem_tracker&& o) noexcept {
    if (this != &o) {
      set(0);
      sub_ = o.sub_;
      charged_ = o.charged_;
      slot_ = o.slot_;
      o.charged_ = 0;
      o.slot_ = nullptr;
    }
    return *this;
  }

  void set(std::uint64_t bytes) noexcept {
    if (bytes == charged_) return;
    if (charged_ == 0 && !mem_on()) return;  // never started tracking
    adjust(bytes);
  }

  /// What this tracker currently has charged (test hook).
  [[nodiscard]] std::uint64_t charged() const noexcept { return charged_; }

  friend void swap(mem_tracker& a, mem_tracker& b) noexcept {
    std::swap(a.sub_, b.sub_);
    std::swap(a.charged_, b.charged_);
    std::swap(a.slot_, b.slot_);
  }

 private:
  void adjust(std::uint64_t bytes) noexcept;  // out-of-line slow half

  mem_subsystem sub_;
  std::uint64_t charged_ = 0;
  detail::mem_rank_slots* slot_ = nullptr;
};

/// Ledger reads (rank -1 = main thread; a rank that never charged reads 0).
[[nodiscard]] std::uint64_t mem_current(mem_subsystem s, int rank) noexcept;
[[nodiscard]] std::uint64_t mem_peak(mem_subsystem s, int rank) noexcept;
/// Process-wide accounted bytes (sum over all ranks and subsystems).
[[nodiscard]] std::uint64_t mem_accounted_current() noexcept;
[[nodiscard]] std::uint64_t mem_accounted_peak() noexcept;
/// The calling rank's accounted bytes (total_current of its slot).
[[nodiscard]] std::uint64_t mem_rank_accounted_current() noexcept;

/// Zero every slot, the process totals, the pressure state and the
/// transition counters, in place (pointers held by live trackers stay
/// valid — their private `charged_` survives, so structures alive across
/// a clear will release more than the ledger shows; clear between
/// scenarios, like span_clear).  Test hook.
void mem_clear();

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

struct mem_rss_sample {
  std::uint64_t rss_bytes = 0;      ///< /proc/self/statm resident pages
  std::uint64_t max_rss_bytes = 0;  ///< getrusage(RUSAGE_SELF) ru_maxrss
};

/// Sample process ground truth without allocating (raw open/read/close on
/// /proc/self/statm plus one getrusage call); also records the first-ever
/// sample as the coverage baseline and keeps the peak sampled RSS.
[[nodiscard]] mem_rss_sample mem_sample_rss() noexcept;

/// First RSS ever sampled (the coverage baseline: what the process
/// weighed before the charged structures existed) and the peak since.
[[nodiscard]] std::uint64_t mem_baseline_rss() noexcept;
[[nodiscard]] std::uint64_t mem_peak_rss() noexcept;

// ---------------------------------------------------------------------------
// Pressure ladder
// ---------------------------------------------------------------------------

[[nodiscard]] mem_pressure_level mem_pressure() noexcept;

struct mem_pressure_transitions {
  std::uint64_t to_soft = 0;
  std::uint64_t to_hard = 0;
  std::uint64_t to_ok = 0;
};
[[nodiscard]] mem_pressure_transitions mem_pressure_counts() noexcept;

/// Register a callback fired on every pressure transition (with the level
/// entered).  Dispatch happens from mem_pressure_poll(), not from the
/// charge that crossed the threshold, so callbacks may allocate and take
/// their own locks.  Returns an id for unregistering.
[[nodiscard]] int mem_register_pressure_callback(
    std::function<void(mem_pressure_level)> cb);
void mem_unregister_pressure_callback(int id);

/// Dispatch pending pressure transitions to the registered callbacks.
/// Call from a poll loop with no subsystem locks held.  Disarmed: one
/// relaxed load.  Armed with nothing pending: a call and two more loads.
inline void mem_pressure_poll() noexcept {
  if (mem_budget() == 0) return;
  detail::mem_pressure_poll_slow();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Per-rank snapshot for the registry fold and the traits round-trip
/// (stats_fields.hpp).  Doubles so stats_to_registry publishes gauges —
/// resident bytes are a level, not a monotonic count.
struct mem_stats {
  double mailbox_arena = 0;
  double cache_frames = 0;
  double queue_buckets = 0;
  double frontier = 0;
  double builder_scratch = 0;
  double partitioner_cache = 0;
  double obs = 0;
  double other = 0;
  double accounted = 0;        ///< sum of the eight, at snapshot time
  histogram peak_log2;         ///< log2 histogram over the subsystem peaks
};

template <>
struct stats_traits<mem_stats> {
  static constexpr auto fields = std::make_tuple(
      stats_field{"mailbox_arena", &mem_stats::mailbox_arena},
      stats_field{"cache_frames", &mem_stats::cache_frames},
      stats_field{"queue_buckets", &mem_stats::queue_buckets},
      stats_field{"frontier", &mem_stats::frontier},
      stats_field{"builder_scratch", &mem_stats::builder_scratch},
      stats_field{"partitioner_cache", &mem_stats::partitioner_cache},
      stats_field{"obs", &mem_stats::obs},
      stats_field{"other", &mem_stats::other},
      stats_field{"accounted", &mem_stats::accounted},
      stats_field{"peak_log2", &mem_stats::peak_log2});
};

/// Snapshot one rank's current bytes + peak histogram.
[[nodiscard]] mem_stats mem_snapshot(int rank) noexcept;

/// Publish the calling rank's ledger into the metrics registry:
/// "mem.<subsystem>_bytes" / "mem.accounted_bytes" gauges (process-wide
/// accounted total) and the "mem.peak_bytes" log2 histogram.
void mem_publish_registry();

/// The calling rank's ledger as one JSON fragment for the collective
/// gather (core/traversal_observer.hpp):
///   {"rank": r, "accounted_current": c, "accounted_peak": p,
///    "subsystems": {"mailbox_arena": {"current": c, "peak": p}, ...}}
[[nodiscard]] json mem_rank_json(int rank);

/// Assemble the gathered per-rank fragments into the sfg-mem/1 section
/// rank 0 embeds in each traversal entry: schema tag, rank count, budget,
/// pressure state + transition counts, RSS ground truth, accounted
/// totals, and the accounted-peak / RSS-growth coverage ratio.
[[nodiscard]] json mem_section_json(json rows);

/// Validate an sfg-mem/1 section (shared by `sfg_obs check --mem`,
/// `sfg_obs mem` and the unit tests, so producer and checkers cannot
/// drift).  Appends one message per problem to `errors` when given.
[[nodiscard]] bool mem_validate(const json& section,
                                std::vector<std::string>* errors);

}  // namespace sfg::obs
