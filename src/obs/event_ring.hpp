/// \file event_ring.hpp
/// The per-rank event ring behind both of the process's event logs: the
/// flight recorder (flight.hpp, DESIGN.md §9) and the critical-path span
/// log (span.hpp, §14).  Internal to src/obs; callers use those headers.
///
/// A log keeps one ring per in-process rank, indexed by rank + 1 (slot 0
/// is the non-rank main thread), created on the rank's first event and
/// reused across launches.  A ring is a power-of-two array of events of
/// `fields` 64-bit words, stored as relaxed atomics: the owning rank is
/// the only writer, and a snapshot taken from another thread (or a signal
/// handler) while it writes reads cleanly — at worst the one in-flight
/// event is field-torn.  Wraparound keeps the newest events; `recorded`
/// counts every event ever appended, so `recorded - capacity` dropped.
///
/// append() resolves the calling thread's ring through a thread-local
/// cache that is re-resolved, under the log's mutex, only when the log's
/// generation moves (set_capacity rebuilds the rings), so the steady
/// state takes no lock and never allocates.  The ring's bytes are charged
/// to the `obs` subsystem of the memory ledger (mem.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/mem.hpp"
#include "util/log.hpp"

namespace sfg::obs::detail {

class event_log {
 public:
  /// Rings of `capacity` events (rounded up to a power of two) of
  /// `fields` words each.  At most kMaxLogs logs may exist.
  event_log(std::size_t fields, std::size_t capacity);

  /// How many logs the thread-local ring cache has room for.
  static constexpr std::size_t kMaxLogs = 2;

  /// Append one event for the calling thread's rank.  The first event of
  /// a rank allocates its ring; every later one is lock- and
  /// allocation-free.
  template <std::size_t N>
  void append(const std::array<std::uint64_t, N>& ev) noexcept {
    assert(N == fields_);
    ring& r = here();
    const std::uint64_t i = r.head.fetch_add(1, std::memory_order_relaxed);
    std::atomic<std::uint64_t>* slot = &r.words[(i & r.mask) * N];
    for (std::size_t f = 0; f < N; ++f) {
      slot[f].store(ev[f], std::memory_order_relaxed);
    }
  }

  /// Events per ring (power of two).
  [[nodiscard]] std::size_t capacity() const;
  /// Round `cap` up to a power of two and discard every ring.  Setup or
  /// test time only: must not race live writers.
  void set_capacity(std::size_t cap);
  /// Zero every ring in place (rings and cached pointers stay valid).
  void clear();
  /// Events appended by the calling thread's rank since the last clear,
  /// overwritten ones included.
  [[nodiscard]] std::uint64_t recorded_here() const;

  /// One ring's surviving events, oldest to newest, `fields` words each.
  struct ring_snapshot {
    int rank = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    std::vector<std::uint64_t> words;
  };
  /// Every ring in rank order, or only `rank`'s (if it has one).
  [[nodiscard]] std::vector<ring_snapshot> snapshot(
      std::optional<int> rank = std::nullopt) const;

 private:
  struct ring {
    ring(std::size_t cap, std::size_t fields, int rank_);
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    std::size_t mask;
    int rank;
    std::atomic<std::uint64_t> head{0};  ///< events ever appended
    mem_tracker mem{mem_subsystem::obs};
  };

  ring& here() noexcept {
    struct cache_entry {
      std::uint64_t gen = 0;
      ring* r = nullptr;
    };
    thread_local cache_entry cache[kMaxLogs];
    cache_entry& c = cache[cache_slot_];
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (c.gen != gen || c.r == nullptr) {
      c.r = &ring_for(util::thread_rank());
      c.gen = gen;
    }
    return *c.r;
  }

  ring& ring_for(int rank);

  const std::size_t fields_;
  const std::size_t cache_slot_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ring>> rings_;  ///< guarded by mu_
  std::size_t capacity_;                      ///< guarded by mu_
  /// Bumped when the rings are rebuilt; invalidates the cached pointers.
  std::atomic<std::uint64_t> gen_{1};
};

}  // namespace sfg::obs::detail
