#include "obs/event_ring.hpp"

#include <bit>
#include <stdexcept>

namespace sfg::obs::detail {

namespace {

std::atomic<std::size_t> logs_created{0};

std::size_t round_capacity(std::size_t cap) {
  return std::bit_ceil(cap == 0 ? std::size_t{1} : cap);
}

}  // namespace

event_log::ring::ring(std::size_t cap, std::size_t fields, int rank_)
    : words(std::make_unique<std::atomic<std::uint64_t>[]>(cap * fields)),
      mask(cap - 1),
      rank(rank_) {
  // Safe under the log's mutex: mem_apply never calls back into a log
  // (pressure transitions are queued for the poll).
  mem.set(cap * fields * sizeof(std::uint64_t));
}

event_log::event_log(std::size_t fields, std::size_t capacity)
    : fields_(fields),
      cache_slot_(logs_created.fetch_add(1, std::memory_order_relaxed)),
      capacity_(round_capacity(capacity)) {
  if (cache_slot_ >= kMaxLogs) {
    throw std::length_error("event_log: raise kMaxLogs for another log");
  }
}

event_log::ring& event_log::ring_for(int rank) {
  const std::scoped_lock lock(mu_);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (rings_.size() <= idx) rings_.resize(idx + 1);
  if (!rings_[idx]) rings_[idx] = std::make_unique<ring>(capacity_, fields_, rank);
  return *rings_[idx];
}

std::size_t event_log::capacity() const {
  const std::scoped_lock lock(mu_);
  return capacity_;
}

void event_log::set_capacity(std::size_t cap) {
  const std::scoped_lock lock(mu_);
  capacity_ = round_capacity(cap);
  rings_.clear();
  gen_.fetch_add(1, std::memory_order_release);
}

void event_log::clear() {
  const std::scoped_lock lock(mu_);
  for (auto& r : rings_) {
    if (!r) continue;
    r->head.store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < capacity_ * fields_; ++i) {
      r->words[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t event_log::recorded_here() const {
  const std::scoped_lock lock(mu_);
  const auto idx = static_cast<std::size_t>(util::thread_rank() + 1);
  if (idx >= rings_.size() || !rings_[idx]) return 0;
  return rings_[idx]->head.load(std::memory_order_relaxed);
}

std::vector<event_log::ring_snapshot> event_log::snapshot(
    std::optional<int> rank) const {
  const std::scoped_lock lock(mu_);
  std::vector<ring_snapshot> out;
  for (const auto& r : rings_) {
    if (!r || (rank && r->rank != *rank)) continue;
    ring_snapshot& s = out.emplace_back();
    s.rank = r->rank;
    s.recorded = r->head.load(std::memory_order_relaxed);
    s.dropped = s.recorded > capacity_ ? s.recorded - capacity_ : 0;
    for (std::uint64_t i = s.dropped; i < s.recorded; ++i) {
      const std::atomic<std::uint64_t>* ev = &r->words[(i & r->mask) * fields_];
      for (std::size_t f = 0; f < fields_; ++f) {
        s.words.push_back(ev[f].load(std::memory_order_relaxed));
      }
    }
  }
  return out;
}

}  // namespace sfg::obs::detail
