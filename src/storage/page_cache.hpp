/// \file page_cache.hpp
/// User-space page cache with a POSIX-flavored get-page interface —
/// this repo's version of the custom page cache the paper built to bypass
/// the Linux page cache (§II-B).  Design goals carried over from the
/// paper: support a high level of *concurrent* requests for both hits and
/// misses (misses release the cache lock during device I/O, so other
/// threads keep hitting), and bound DRAM use to a fixed number of frames.
///
/// Eviction is CLOCK (second chance) over unpinned frames.  Pages are
/// pinned while a page_ref is alive; pinned pages are never evicted.
/// Dirty pages are written back on eviction and on flush_dirty().
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"
#include "storage/block_device.hpp"
#include "util/chaos.hpp"

namespace sfg::storage {

class page_cache {
 public:
  /// Injectable slow-path hooks (the storage arm of the fault-injection
  /// layer, see runtime/fault.hpp): randomized eviction pressure forces
  /// the miss path even for a warm working set, and delayed I/O completion
  /// stretches the windows in which concurrent hits and misses interleave.
  /// Decisions are deterministic per (seed, call index).  Inert by default.
  struct fault_hooks {
    std::uint64_t seed = 0;
    double evict_prob = 0.0;     ///< per get(): drop one unpinned clean frame
    double io_delay_prob = 0.0;  ///< per device read/write: sleep afterwards
    std::chrono::nanoseconds max_io_delay{0};

    [[nodiscard]] bool enabled() const noexcept {
      return evict_prob > 0.0 || io_delay_prob > 0.0;
    }
  };

  struct config {
    std::size_t page_size = 4096;
    std::size_t num_frames = 1024;  ///< DRAM budget = page_size * num_frames
    fault_hooks faults{};
  };

  page_cache(block_device& dev, config cfg);
  ~page_cache();

  page_cache(const page_cache&) = delete;
  page_cache& operator=(const page_cache&) = delete;

  /// A pinned view of one cached page.  Move-only; unpins on destruction.
  class page_ref {
   public:
    page_ref() = default;
    page_ref(page_ref&& other) noexcept;
    page_ref& operator=(page_ref&& other) noexcept;
    ~page_ref();

    page_ref(const page_ref&) = delete;
    page_ref& operator=(const page_ref&) = delete;

    [[nodiscard]] bool valid() const noexcept { return cache_ != nullptr; }
    [[nodiscard]] std::uint64_t page_id() const noexcept { return page_id_; }

    /// Read-only view of the page's bytes.
    [[nodiscard]] std::span<const std::byte> data() const;

    /// Writable view; marks the page dirty.
    [[nodiscard]] std::span<std::byte> mutable_data();

   private:
    friend class page_cache;
    page_ref(page_cache* cache, std::size_t frame, std::uint64_t page_id)
        : cache_(cache), frame_(frame), page_id_(page_id) {}

    page_cache* cache_ = nullptr;
    std::size_t frame_ = 0;
    std::uint64_t page_id_ = 0;
  };

  /// Pin page `page_id` (device bytes [page_id * page_size, +page_size)),
  /// faulting it in from the device on a miss.  Blocks only if every frame
  /// is pinned or the page is mid-load by another thread.
  ///
  /// `requested_bytes` is the caller's declared demand from this page (a
  /// paged_array element access passes sizeof(T), a cursor its span) — the
  /// denominator of the read/write-amplification pair: the device always
  /// moves whole pages, so amplification = dev_bytes_moved /
  /// bytes_requested.  The one-argument form charges a full page.
  page_ref get(std::uint64_t page_id) { return get(page_id, cfg_.page_size); }
  page_ref get(std::uint64_t page_id, std::size_t requested_bytes);

  /// Write back every dirty page (does not evict).
  void flush_dirty();

  [[nodiscard]] std::size_t page_size() const noexcept { return cfg_.page_size; }
  [[nodiscard]] std::size_t num_frames() const noexcept { return cfg_.num_frames; }

  struct cache_stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;        ///< capacity evictions (clean victim)
    std::uint64_t writebacks = 0;
    std::uint64_t fault_evictions = 0;  ///< frames dropped by injected pressure
    std::uint64_t fault_io_delays = 0;  ///< device I/Os artificially delayed
    /// I/O attribution (DESIGN.md §12).  The amplification pair: callers
    /// declare their demand per get() (bytes_requested); the device always
    /// moves whole pages (dev_bytes_read on miss fills, dev_bytes_written
    /// on writebacks).  read amplification = dev_bytes_read /
    /// bytes_requested.
    std::uint64_t bytes_requested = 0;
    std::uint64_t dev_bytes_read = 0;
    std::uint64_t dev_bytes_written = 0;
    /// Eviction-cause counter missing above: victims that were dirty and
    /// stalled the miss on a writeback first (capacity evictions of clean
    /// frames stay in `evictions`, injected drops in `fault_evictions`).
    std::uint64_t evict_writeback = 0;
    /// Per-operation latency histograms (µs), recorded only while
    /// obs::metrics_on() — clock reads cost too much for the always-on
    /// path.  fault_us is the full miss service time a caller observed
    /// (victim search + any writeback stall + fill); read_us / write_us
    /// are the unlocked device sections (injected delays included — they
    /// model slow media).
    obs::histogram read_us;
    obs::histogram write_us;
    obs::histogram fault_us;
    /// Sampled reuse distance: accesses between touches of the same page,
    /// tracked through a fixed 256-slot hash table (collisions overwrite —
    /// that is the sampling).  Small distances = the working set fits;
    /// mass in high buckets = thrashing.
    obs::histogram reuse_dist;
  };
  [[nodiscard]] cache_stats stats() const;

  /// Frame heat: per-frame touch counts (hits + claims) since
  /// construction.  Returns {"frames": N, "touched": M, "top": [{frame,
  /// page, touches} x top_n]} sorted hottest-first — `sfg_obs heat`'s frame
  /// panel, and the attribution for "which pages are hot" questions the
  /// rank x rank matrix cannot answer.
  [[nodiscard]] obs::json heat_json(std::size_t top_n) const;
  /// Zero this cache's stats_ snapshot only.  The cache.* registry
  /// counters deliberately keep counting: they are process-wide and
  /// monotonic (shared across caches, diffed into rates by the
  /// time-series sampler), so a per-instance reset must not touch them.
  void reset_stats();

 private:
  static constexpr std::uint64_t kNoPage =
      std::numeric_limits<std::uint64_t>::max();

  struct frame {
    std::uint64_t page_id = kNoPage;
    int pins = 0;
    bool dirty = false;
    bool loading = false;     ///< device I/O in flight for this frame
    bool referenced = false;  ///< CLOCK reference bit
    std::uint64_t touches = 0;  ///< hits + claims; heat_json() ranks by this
    std::vector<std::byte> data;
    /// Backing capacity currently charged to the memory ledger
    /// (mem_subsystem::cache_frames); synced when `data` grows on a miss
    /// fill or is freed by a pressure shrink.
    std::size_t mem_charged = 0;
  };

  /// One slot of the sampled reuse-distance estimator (see
  /// cache_stats::reuse_dist); fixed-size, so the estimator never
  /// allocates.  `clock` is the access count (hits + misses) at the last
  /// touch of `page`.
  struct reuse_slot {
    std::uint64_t page = kNoPage;
    std::uint64_t clock = 0;
  };

  void unpin(std::size_t frame_idx);
  void mark_dirty(std::size_t frame_idx);

  /// Pick an evictable frame with the CLOCK hand; caller holds the lock.
  /// Returns num_frames() if nothing is currently evictable.
  std::size_t find_victim_locked();

  /// Injected eviction pressure: drop one unpinned, clean, resident frame
  /// chosen by the fault stream.  Caller holds the lock.
  void fault_evict_locked();

  /// Draw one I/O-delay decision (caller holds the lock); the returned
  /// duration (possibly zero) is slept *after* the device call, outside
  /// the lock.
  std::chrono::nanoseconds draw_io_delay_locked();

  /// Re-sync one frame's backing capacity into the memory ledger (caller
  /// holds the lock).  Unchanged capacity: one compare.
  void sync_frame_mem_locked(frame& f) noexcept;

  /// Memory-pressure reaction (dispatched from obs::mem_pressure_poll,
  /// never from inside a charge): soft/hard halves the effective frame
  /// bound and frees clean unpinned frames beyond it; ok restores the
  /// configured pool size.
  void on_mem_pressure(obs::mem_pressure_level level);

  block_device* dev_;
  config cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<frame> frames_;
  std::unordered_map<std::uint64_t, std::size_t> page_to_frame_;
  std::size_t clock_hand_ = 0;
  /// Effective frame bound: misses only claim frames below this index.
  /// Equal to cfg_.num_frames except while a memory budget is under
  /// pressure (on_mem_pressure halves it, floor 4 or the pool size).
  std::size_t frame_limit_ = 0;
  /// Sum of per-frame mem_charged (O(1) ledger syncs).
  std::uint64_t frames_mem_charged_ = 0;
  obs::mem_tracker frames_mem_{obs::mem_subsystem::cache_frames};
  int mem_cb_id_ = 0;  ///< pressure-callback registration (0 = none)
  cache_stats stats_;
  std::array<reuse_slot, 256> reuse_{};  // guarded by mu_
  bool faults_on_ = false;
  util::chaos_stream fault_stream_;  // guarded by mu_
  /// Process-wide registry counters (handles cached at construction; each
  /// add is one metrics_on() branch while the data gate is off).
  /// Monotonic across *all* caches and never cleared by reset_stats() —
  /// see the reset_stats() contract above.
  obs::counter& m_hits_;
  obs::counter& m_misses_;
  obs::counter& m_evictions_;
  obs::counter& m_writebacks_;
  obs::counter& m_bytes_requested_;
  obs::counter& m_dev_bytes_read_;
  obs::counter& m_dev_bytes_written_;
  /// Registry twins of the per-instance latency histograms: process-wide,
  /// so every run report's metrics snapshot carries cache I/O latency.
  obs::histogram_metric& m_read_us_;
  obs::histogram_metric& m_write_us_;
  obs::histogram_metric& m_fault_us_;
};

}  // namespace sfg::storage

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.
template <>
struct sfg::obs::stats_traits<sfg::storage::page_cache::cache_stats> {
  using S = sfg::storage::page_cache::cache_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"hits", &S::hits}, stats_field{"misses", &S::misses},
      stats_field{"evictions", &S::evictions},
      stats_field{"writebacks", &S::writebacks},
      stats_field{"fault_evictions", &S::fault_evictions},
      stats_field{"fault_io_delays", &S::fault_io_delays},
      stats_field{"bytes_requested", &S::bytes_requested},
      stats_field{"dev_bytes_read", &S::dev_bytes_read},
      stats_field{"dev_bytes_written", &S::dev_bytes_written},
      stats_field{"evict_writeback", &S::evict_writeback},
      stats_field{"read_us", &S::read_us},
      stats_field{"write_us", &S::write_us},
      stats_field{"fault_us", &S::fault_us},
      stats_field{"reuse_dist", &S::reuse_dist});
};
