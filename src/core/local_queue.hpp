/// \file local_queue.hpp
/// The visitor queue's *local* priority queue, behind a small concept so
/// the traversal driver (visitor_queue.hpp) and the algorithms never see
/// the container: push(v) / top() / pop() / empty() / size().
///
/// Two implementations share the exact same ordering contract — smallest
/// (priority, tie-key) first, where priority is the visitor's operator<
/// and the tie-key is the vertex locator (the paper's §V-A page-locality
/// tie-break) or its scramble (locality ablation):
///
///   - heap_queue: the reference std::priority_queue over whole visitors.
///   - bucket_queue (selected automatically for visitors exposing an
///     integral priority_key()): dial/radix buckets over the priority key;
///     within a bucket, a flat binary heap over bare 64-bit tie-keys.
///
/// Selection is by the keyed_visitor concept: a visitor opts in with
///   std::uint64_t priority_key() const;   // == its operator< key
/// Visitors with non-integral priorities (pagerank's double delta,
/// connected components' full-width label) simply don't define it and get
/// the heap fallback.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <queue>
#include <vector>

#include "obs/mem.hpp"
#include "util/rng.hpp"

namespace sfg::core {

/// How equal-priority visitors are ordered in the local queue.
enum class order_tiebreak {
  /// The paper's external-memory locality optimization (§V-A): ascending
  /// vertex locator, maximizing page-level locality of the CSR.
  vertex_locality,
  /// Ablation: a hash of the locator — destroys page locality while
  /// keeping a deterministic total order.
  scrambled,
};

/// A visitor whose priority is an integral key consistent with its
/// operator<:  a < b  <=>  a.priority_key() < b.priority_key().
template <typename V>
concept keyed_visitor = requires(const V& v) {
  { v.priority_key() } -> std::convertible_to<std::uint64_t>;
};

/// The §V-A tie-break key of a locator's raw bits.
[[nodiscard]] inline std::uint64_t tie_key(std::uint64_t locator_bits,
                                           order_tiebreak mode) noexcept {
  return mode == order_tiebreak::vertex_locality
             ? locator_bits
             : util::splitmix64(locator_bits);
}

/// Reference implementation: std::priority_queue over whole visitors,
/// min on (operator<, tie-key).
template <typename Visitor>
class heap_queue {
 public:
  explicit heap_queue(order_tiebreak mode) : pq_(cmp{mode}) {}

  [[nodiscard]] bool empty() const noexcept { return pq_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return pq_.size(); }

  void push(const Visitor& v) { pq_.push(v); }
  [[nodiscard]] const Visitor& top() const { return pq_.top(); }
  void pop() { pq_.pop(); }

 private:
  /// Min-heap: smallest visitor on top; ties in algorithm priority fall
  /// back to the tie-key (vertex order or its scramble).
  struct cmp {
    order_tiebreak mode = order_tiebreak::vertex_locality;
    bool operator()(const Visitor& a, const Visitor& b) const {
      if (b < a) return true;
      if (a < b) return false;
      return tie_key(a.vertex.bits(), mode) > tie_key(b.vertex.bits(), mode);
    }
  };

  std::priority_queue<Visitor, std::vector<Visitor>, cmp> pq_;
};

/// Dial/radix bucket queue for keyed visitors.  Buckets are indexed by
/// `priority_key() - floor_`; keys more than kWindow past the floor
/// spill into an overflow heap and migrate back as the floor advances.
///
/// Within a bucket, entries live in *sorted runs* (a sequence-heap-style
/// layout) instead of one big binary heap:
///
///   - push is a plain push_back into an unsorted staging vector — no
///     sift, no comparison at all;
///   - the first pop after a push streak sorts the staged batch once
///     (by the 64-bit tie-key) and appends it as a new run;
///   - pop scans the <= kMaxRuns run heads for the smallest tie-key and
///     advances that run's head — consuming a sorted run is free;
///   - when runs pile up, the two smallest are merged with std::merge
///     (streaming, cache-friendly), so every entry is touched O(log)
///     times in the worst case but with sequential access throughout.
///
/// This replaces the O(log n) random-access sift of a heap per push/pop
/// with batched sorts and linear merges, which is what makes the bucket
/// queue faster even for constant-priority visitors (k-core, triangles)
/// whose entries all share one bucket.
///
/// Invariants (held after every push/pop):
///   - buckets_[cursor_] is the first non-empty bucket (when size_ > 0),
///   - every run in every bucket has at least one unconsumed entry,
///   - every overflow entry's key exceeds floor_ + cursor_,
///   - every overflow entry's key is >= floor_ (indexes never underflow).
template <keyed_visitor Visitor>
class bucket_queue {
 public:
  explicit bucket_queue(order_tiebreak mode) : mode_(mode) {}

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(const Visitor& v) {
    const auto key = static_cast<std::uint64_t>(v.priority_key());
    ++size_;
    if (size_ == 1) {
      // Was empty: every bucket is empty, so rebase in place (keeping
      // bucket capacity warm across the frequent drain/refill cycles of
      // a traversal's polling loop).
      floor_ = key;
      cursor_ = 0;
      place(0, v);
      return;
    }
    if (key < floor_) {
      rebase_below(key);
      place(0, v);
      return;
    }
    const std::uint64_t idx = key - floor_;
    if (idx >= kWindow) {
      overflow_.push(overflow_entry{key, tie_of(v), v});
      return;
    }
    place(idx, v);
  }

  /// Non-const: lazily sorts any staged pushes in the current bucket.
  [[nodiscard]] const Visitor& top() {
    assert(size_ > 0);
    bucket& b = buckets_[cursor_];
    prepare(b);
    if (cached_min_ == kNoMin) refresh_min(b);
    const run& r = b.runs[cached_min_];
    return r.items[r.head];
  }

  void pop() {
    assert(size_ > 0);
    bucket& b = buckets_[cursor_];
    prepare(b);
    if (cached_min_ == kNoMin) refresh_min(b);
    const std::size_t mi = cached_min_;
    run& r = b.runs[mi];
    ++r.head;
    if (r.head == r.items.size()) {
      give_spare(std::move(r.items));
      b.runs[mi] = std::move(b.runs.back());
      b.runs.pop_back();
      cached_min_ = kNoMin;
    } else {
      r.head_tie = tie_of(r.items[r.head]);
      // The memo survives while this run still beats the runner-up seen
      // at scan time (every other head is frozen until the next scan).
      if (r.head_tie > cached_second_tie_) cached_min_ = kNoMin;
    }
    --size_;
    // Fast path: the current bucket still holds the minimum.
    if (!b.empty() &&
        (overflow_.empty() || overflow_.top().key - floor_ > cursor_)) {
      return;
    }
    settle();
  }

 private:
  /// One ascending tie-key run, consumed from the front.  The head's
  /// tie-key is cached inline so find_min scans run structs without
  /// dereferencing into every run's array.
  struct run {
    std::vector<Visitor> items;
    std::size_t head = 0;
    std::uint64_t head_tie = 0;
    [[nodiscard]] std::size_t left() const noexcept {
      return items.size() - head;
    }
  };
  /// Staged pushes are unsorted; they become a run on the first pop.
  struct bucket {
    std::vector<run> runs;
    std::vector<Visitor> staged;
    [[nodiscard]] bool empty() const noexcept {
      return staged.empty() && runs.empty();
    }
  };
  struct overflow_entry {
    std::uint64_t key;
    std::uint64_t tie;
    Visitor v;
    bool operator>(const overflow_entry& o) const noexcept {
      return key != o.key ? key > o.key : tie > o.tie;
    }
  };

  static constexpr std::uint64_t kWindow = 4096;      ///< bucket span
  static constexpr std::uint64_t kEraseChunk = 1024;  ///< lazy prefix trim
  static constexpr std::size_t kMaxRuns = 8;          ///< head-scan width

  [[nodiscard]] std::uint64_t tie_of(const Visitor& v) const noexcept {
    return tie_key(v.vertex.bits(), mode_);
  }

  // Exhausted run vectors are recycled as staging/merge scratch so the
  // steady state allocates nothing.
  std::vector<Visitor> take_spare() {
    if (spare_.empty()) return {};
    std::vector<Visitor> v = std::move(spare_.back());
    spare_.pop_back();
    return v;
  }
  void give_spare(std::vector<Visitor>&& v) {
    v.clear();
    if (spare_.size() < 16) spare_.push_back(std::move(v));
  }

  /// Sort staged pushes into a new run; keep the run count bounded.
  void prepare(bucket& b) {
    if (!b.staged.empty()) {
      cached_min_ = kNoMin;
      if (mode_ == order_tiebreak::vertex_locality) {
        std::sort(b.staged.begin(), b.staged.end(), by_bits{});
      } else {
        std::sort(b.staged.begin(), b.staged.end(), by_scramble{});
      }
      run r;
      r.items = std::move(b.staged);
      r.head_tie = tie_of(r.items.front());
      b.staged = take_spare();
      b.runs.push_back(std::move(r));
    }
    while (b.runs.size() > kMaxRuns) merge_smallest(b);
  }

  /// Merge the two shortest runs (streaming std::merge on remainders).
  void merge_smallest(bucket& b) {
    std::size_t a = 0;
    std::size_t c = 1;
    if (b.runs[c].left() < b.runs[a].left()) std::swap(a, c);
    for (std::size_t i = 2; i < b.runs.size(); ++i) {
      if (b.runs[i].left() < b.runs[a].left()) {
        c = a;
        a = i;
      } else if (b.runs[i].left() < b.runs[c].left()) {
        c = i;
      }
    }
    run& ra = b.runs[a];
    run& rc = b.runs[c];
    std::vector<Visitor> merged = take_spare();
    merged.reserve(ra.left() + rc.left());
    const auto a_begin = ra.items.begin() + static_cast<std::ptrdiff_t>(ra.head);
    const auto c_begin = rc.items.begin() + static_cast<std::ptrdiff_t>(rc.head);
    if (mode_ == order_tiebreak::vertex_locality) {
      std::merge(a_begin, ra.items.end(), c_begin, rc.items.end(),
                 std::back_inserter(merged), by_bits{});
    } else {
      std::merge(a_begin, ra.items.end(), c_begin, rc.items.end(),
                 std::back_inserter(merged), by_scramble{});
    }
    give_spare(std::move(ra.items));
    give_spare(std::move(rc.items));
    ra.items = std::move(merged);
    ra.head = 0;
    ra.head_tie = tie_of(ra.items.front());
    cached_min_ = kNoMin;
    // Remove run c (swap with the last; a != c by construction).
    b.runs[c] = std::move(b.runs.back());
    b.runs.pop_back();
  }

  /// Memoize the run with the smallest head tie-key plus the runner-up
  /// tie, so pop streaks from one run skip rescanning entirely.
  void refresh_min(const bucket& b) {
    assert(!b.runs.empty());
    std::size_t best = 0;
    std::uint64_t best_tie = b.runs[0].head_tie;
    std::uint64_t second = ~std::uint64_t{0};
    for (std::size_t i = 1; i < b.runs.size(); ++i) {
      const std::uint64_t t = b.runs[i].head_tie;
      if (t < best_tie) {
        second = best_tie;
        best_tie = t;
        best = i;
      } else if (t < second) {
        second = t;
      }
    }
    cached_min_ = best;
    cached_second_tie_ = second;
  }

  void place(std::uint64_t idx, const Visitor& v) {
    if (idx >= buckets_.size()) buckets_.resize(idx + 1);
    buckets_[idx].staged.push_back(v);
    if (idx < cursor_) {
      cursor_ = idx;
      cached_min_ = kNoMin;
    }
  }

  /// A key arrived below the current floor (a remote visitor from a rank
  /// whose frontier lags ours).  Rare: shift the dial down to it.
  void rebase_below(std::uint64_t key) {
    cached_min_ = kNoMin;
    const std::uint64_t shift = floor_ - key;
    if (shift >= kWindow) {
      // Everything currently bucketed lands beyond the new window; demote
      // it all to overflow (pathological, e.g. one huge-distance path).
      for (std::uint64_t i = cursor_; i < buckets_.size(); ++i) {
        bucket& b = buckets_[i];
        for (run& r : b.runs) {
          for (std::size_t j = r.head; j < r.items.size(); ++j) {
            overflow_.push(
                overflow_entry{floor_ + i, tie_of(r.items[j]), r.items[j]});
          }
          give_spare(std::move(r.items));
        }
        b.runs.clear();
        for (const Visitor& v : b.staged) {
          overflow_.push(overflow_entry{floor_ + i, tie_of(v), v});
        }
        b.staged.clear();
      }
    } else {
      buckets_.insert(buckets_.begin(), shift, bucket{});
    }
    floor_ = key;
    cursor_ = 0;
  }

  void migrate_overflow_top() {
    const overflow_entry e = overflow_.top();
    overflow_.pop();
    place(e.key - floor_, e.v);
  }

  /// Re-establish the invariants after a pop: advance the cursor over
  /// empties, pull due overflow entries back in, trim the dead prefix.
  void settle() {
    cached_min_ = kNoMin;
    if (size_ == 0) {
      cursor_ = 0;
      return;
    }
    for (;;) {
      while (cursor_ < buckets_.size() && buckets_[cursor_].empty()) {
        ++cursor_;
      }
      if (cursor_ == buckets_.size()) {
        // Only overflow entries remain: rebase the dial onto them.
        assert(!overflow_.empty());
        buckets_.clear();
        floor_ = overflow_.top().key;
        cursor_ = 0;
        while (!overflow_.empty() && overflow_.top().key - floor_ < kWindow) {
          migrate_overflow_top();
        }
        continue;
      }
      // An overflow key at or below the current bucket must pop first.
      while (!overflow_.empty() &&
             overflow_.top().key - floor_ <= cursor_) {
        migrate_overflow_top();
      }
      break;
    }
    if (cursor_ > kEraseChunk) {
      buckets_.erase(buckets_.begin(),
                     buckets_.begin() + static_cast<std::ptrdiff_t>(cursor_));
      floor_ += cursor_;
      cursor_ = 0;
    }
  }

  static constexpr std::size_t kNoMin = static_cast<std::size_t>(-1);

  /// Mode-hoisted sort comparators (no per-comparison mode branch).
  struct by_bits {
    bool operator()(const Visitor& x, const Visitor& y) const noexcept {
      return x.vertex.bits() < y.vertex.bits();
    }
  };
  struct by_scramble {
    bool operator()(const Visitor& x, const Visitor& y) const noexcept {
      return util::splitmix64(x.vertex.bits()) <
             util::splitmix64(y.vertex.bits());
    }
  };

  order_tiebreak mode_;
  std::uint64_t floor_ = 0;   ///< key of buckets_[0]
  std::uint64_t cursor_ = 0;  ///< first non-empty bucket index
  std::size_t cached_min_ = kNoMin;  ///< min-run memo between top and pop
  std::uint64_t cached_second_tie_ = 0;  ///< runner-up head tie at scan time
  std::size_t size_ = 0;
  std::vector<bucket> buckets_;
  std::vector<std::vector<Visitor>> spare_;
  std::priority_queue<overflow_entry, std::vector<overflow_entry>,
                      std::greater<>>
      overflow_;
};

/// The container a visitor's local queue uses, fixed at compile time:
/// buckets for keyed visitors, the reference heap for the rest.
template <typename Visitor>
struct queue_container {
  using type = heap_queue<Visitor>;
};
template <keyed_visitor Visitor>
struct queue_container<Visitor> {
  using type = bucket_queue<Visitor>;
};

/// The local queue used by visitor_queue: the visitor's container plus
/// the memory-ledger charge.  Benches and tests that compare containers
/// use bucket_queue and heap_queue directly.
template <typename Visitor>
class local_queue {
 public:
  explicit local_queue(order_tiebreak mode) : q_(mode) {}

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }
  void push(const Visitor& v) {
    q_.push(v);
    sync_mem();
  }
  /// Non-const: the bucket container lazily sorts staged pushes here.
  [[nodiscard]] const Visitor& top() { return q_.top(); }
  void pop() {
    q_.pop();
    sync_mem();
  }

 private:
  /// Ledger sync (mem_subsystem::queue_buckets): a page-quantized
  /// estimate of live entries across staged runs, the spill heap, and the
  /// heap fallback alike.  Quantizing means the common push/pop is one
  /// compare in the tracker (the charge only moves when the entry count
  /// crosses a 4 KiB boundary), and size-based accounting — unlike
  /// chasing every run/spare/overflow capacity — stays one call site.
  /// Container slack (recycled spares, bucket array) is deliberately not
  /// counted; it is bounded and the coverage ratio absorbs it.
  static constexpr std::size_t kMemQuantum = 4096;
  void sync_mem() noexcept {
    const std::size_t bytes = size() * sizeof(Visitor);
    mem_.set((bytes + kMemQuantum - 1) & ~(kMemQuantum - 1));
  }

  typename queue_container<Visitor>::type q_;
  obs::mem_tracker mem_{obs::mem_subsystem::queue_buckets};
};

}  // namespace sfg::core
