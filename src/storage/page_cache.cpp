#include "storage/page_cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace sfg::storage {

namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spread page ids over the 256 reuse-distance slots (splitmix-style mix;
/// sequential scans must not all land in one slot).
std::size_t reuse_slot_of(std::uint64_t page_id) {
  page_id *= 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(page_id >> 56);
}

}  // namespace

page_cache::page_cache(block_device& dev, config cfg)
    : dev_(&dev),
      cfg_(cfg),
      frames_(cfg.num_frames),
      table_(cfg.num_frames, 4),
      faults_on_(cfg.faults.enabled()),
      fault_stream_(cfg.faults.seed, 0xCAC4Eu),
      m_hits_(obs::metrics_registry::instance().get_counter("cache.hits")),
      m_misses_(obs::metrics_registry::instance().get_counter("cache.misses")),
      m_evictions_(
          obs::metrics_registry::instance().get_counter("cache.evictions")),
      m_bytes_requested_(obs::metrics_registry::instance().get_counter(
          "cache.bytes_requested")),
      m_dev_bytes_read_(obs::metrics_registry::instance().get_counter(
          "cache.dev_bytes_read")),
      m_read_us_(
          obs::metrics_registry::instance().get_histogram("cache.read_us")),
      m_fault_us_(
          obs::metrics_registry::instance().get_histogram("cache.fault_us")) {
  if (cfg.page_size == 0 || cfg.num_frames == 0) {
    throw std::invalid_argument("page_cache: page_size and num_frames must be > 0");
  }
  frame_limit_ = cfg_.num_frames;
  // Budget-pressure reaction: the cache is the engine's biggest elastic
  // consumer, so it volunteers its frame pool first.  Dispatch comes from
  // mem_pressure_poll with no cache locks held, so taking mu_ inside the
  // callback is safe.
  mem_cb_id_ = obs::mem_register_pressure_callback(
      [this](obs::mem_pressure_level level) { on_mem_pressure(level); });
}

page_cache::~page_cache() {
  // Hard synchronization point: after this returns the callback can never
  // fire again (mem.cpp invokes under the same registration lock).
  obs::mem_unregister_pressure_callback(mem_cb_id_);
}

void page_cache::sync_frame_mem_locked(frame& f) noexcept {
  const std::size_t cap = f.data.capacity();
  if (cap == f.mem_charged) return;
  frames_mem_charged_ += cap;
  frames_mem_charged_ -= f.mem_charged;
  f.mem_charged = cap;
  frames_mem_.set(frames_mem_charged_);
}

void page_cache::on_mem_pressure(obs::mem_pressure_level level) {
  std::size_t freed = 0;
  {
    const std::scoped_lock lock(mu_);
    if (level == obs::mem_pressure_level::ok) {
      frame_limit_ = cfg_.num_frames;
      return;
    }
    const std::size_t floor_frames = std::min<std::size_t>(4, cfg_.num_frames);
    frame_limit_ = std::max(floor_frames, frame_limit_ / 2);
    if (clock_hand_ >= frame_limit_) clock_hand_ = 0;
    // Free the backing of unpinned frames beyond the new bound so the
    // bytes actually leave (observable in the cache_frames ledger).
    // Pinned or loading frames stay — best effort, retried on the next
    // transition.
    for (std::size_t i = frame_limit_; i < frames_.size(); ++i) {
      frame& f = frames_[i];
      if (f.pins > 0 || f.loading) continue;
      if (f.page_id != kNoPage) {
        table_.erase(f.page_id);
        f.page_id = kNoPage;
      }
      f.referenced = false;
      if (f.data.capacity() == 0) continue;
      f.data.clear();
      f.data.shrink_to_fit();
      sync_frame_mem_locked(f);
      ++freed;
    }
  }
  cv_.notify_all();
  obs::trace_instant("cache.mem_shrink", "storage", "freed",
                     static_cast<double>(freed));
  if (obs::metrics_on()) {
    obs::metrics_registry::instance()
        .get_counter("mem.pressure_cache_shrinks")
        .add_raw(1);
  }
}

// ---------------------------------------------------------------------------
// page_ref
// ---------------------------------------------------------------------------

page_cache::page_ref::page_ref(page_ref&& other) noexcept {
  *this = std::move(other);
}

page_cache::page_ref& page_cache::page_ref::operator=(
    page_ref&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) cache_->unpin(frame_, declared_);
    cache_ = other.cache_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    declared_ = other.declared_;
    other.cache_ = nullptr;
  }
  return *this;
}

page_cache::page_ref::~page_ref() {
  if (cache_ != nullptr) cache_->unpin(frame_, declared_);
}

std::span<const std::byte> page_cache::page_ref::data() const {
  assert(valid());
  // Safe without the cache lock: pinned frames are never evicted,
  // reloaded, or resized.
  return cache_->frames_[frame_].data;
}

// ---------------------------------------------------------------------------
// page_cache
// ---------------------------------------------------------------------------

std::size_t page_cache::find_victim_locked() {
  // CLOCK / second chance: two sweeps are enough — the first clears
  // reference bits, the second must find any unpinned frame.  The hand
  // walks only the effective pool [0, frame_limit_): under memory
  // pressure misses stop re-populating the shrunk tail.
  const std::size_t limit = frame_limit_;
  if (clock_hand_ >= limit) clock_hand_ = 0;
  for (std::size_t scanned = 0; scanned < 2 * limit; ++scanned) {
    const std::size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % limit;
    frame& f = frames_[idx];
    if (f.pins > 0 || f.loading) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    return idx;
  }
  return frames_.size();  // everything in the effective pool pinned/loading
}

void page_cache::fault_evict_locked() {
  const std::size_t start = fault_stream_.below(frames_.size());
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    frame& f = frames_[(start + i) % frames_.size()];
    if (f.page_id == kNoPage || f.pins > 0 || f.loading) continue;
    table_.erase(f.page_id);
    f.page_id = kNoPage;
    f.referenced = false;
    ++stats_.fault_evictions;
    obs::trace_instant("cache.fault_evict", "storage");
    return;
  }
}

std::chrono::nanoseconds page_cache::draw_io_delay_locked() {
  if (!faults_on_ || !fault_stream_.decide(cfg_.faults.io_delay_prob)) {
    return std::chrono::nanoseconds{0};
  }
  ++stats_.fault_io_delays;
  return fault_stream_.duration_up_to(cfg_.faults.max_io_delay);
}

page_cache::page_ref page_cache::get(std::uint64_t page_id,
                                     std::size_t requested_bytes) {
  std::unique_lock lock(mu_);
  stats_.bytes_requested += requested_bytes;
  // The data gate, loaded once: registry counters, latency histograms and
  // the reuse-distance estimator all run under it.
  const bool data_on = obs::metrics_on();
  if (data_on) {
    m_bytes_requested_.add_raw(requested_bytes);
    // Sampled reuse distance: clock = accesses so far; a slot collision
    // simply overwrites (that is the sampling, not an error).
    const std::uint64_t clk = stats_.hits + stats_.misses;
    reuse_slot& slot = reuse_[reuse_slot_of(page_id)];
    if (slot.page == page_id && clk > slot.clock) {
      stats_.reuse_dist.add(clk - slot.clock);
    }
    slot.page = page_id;
    slot.clock = clk;
  }
  if (faults_on_ && fault_stream_.decide(cfg_.faults.evict_prob)) {
    fault_evict_locked();
  }
  std::uint64_t fault_t0 = 0;  // set on first miss; 0 = hit path
  for (;;) {
    if (const auto hit = table_.find(page_id)) {
      frame& f = frames_[*hit];
      if (f.loading) {
        // Another thread is faulting this page in; wait for the I/O to
        // finish, then re-check.
        cv_.wait(lock);
        continue;
      }
      ++f.pins;
      f.referenced = true;
      ++f.touches;
      ++stats_.hits;
      if (data_on) m_hits_.add_raw(1);
      return page_ref(this, *hit, page_id);
    }
    if (data_on && fault_t0 == 0) fault_t0 = now_us();

    const std::size_t v = find_victim_locked();
    if (v == frames_.size()) {
      cv_.wait(lock);  // all frames pinned/loading; wait for an unpin
      continue;
    }
    frame& f = frames_[v];

    if (f.page_id != kNoPage) {
      obs::trace_instant("cache.evict", "storage", "page",
                         static_cast<double>(f.page_id));
      table_.erase(f.page_id);
      ++stats_.evictions;
      if (data_on) m_evictions_.add_raw(1);
    }

    // Claim the frame and fault the page in with the lock released, so
    // hits (and other misses) proceed concurrently — the high-concurrency
    // requirement from paper §II-B.
    f.page_id = page_id;
    f.loading = true;
    f.pins = 1;
    f.referenced = true;
    ++f.touches;
    // The device writes every byte of the frame (block_device::read's
    // contract), so a reused frame is not cleared first: the page is
    // copied exactly once.  Only a frame's first fill, or its first after
    // a pressure shrink freed it, sizes the buffer.
    f.data.resize(cfg_.page_size);
    sync_frame_mem_locked(f);
    table_.insert(page_id, v);
    ++stats_.misses;
    stats_.dev_bytes_read += cfg_.page_size;
    if (data_on) {
      m_misses_.add_raw(1);
      m_dev_bytes_read_.add_raw(cfg_.page_size);
    }
    const auto io_delay = draw_io_delay_locked();
    const std::uint64_t r0 = data_on ? now_us() : 0;
    {
      // io_wait phase: only the unlocked device time counts — lock
      // contention stays attributed to whatever phase the caller is in.
      // With SFG_SPANS set these scopes also become the page-cache fault
      // spans of the critical-path log (phase.cpp records each io_wait
      // self-time interval; `sfg_obs why` cross-refs them with the cache
      // amplification counters).
      const obs::phase_scope pscope(obs::phase::io_wait);
      obs::trace_span span("cache.miss_fill", "storage");
      span.set_arg("page", static_cast<double>(page_id));
      lock.unlock();
      dev_->read(page_id * cfg_.page_size, f.data);
      if (io_delay.count() > 0) std::this_thread::sleep_for(io_delay);
      lock.lock();
    }
    f.loading = false;
    if (data_on) {
      const std::uint64_t done = now_us();
      stats_.read_us.add(done - r0);
      m_read_us_.record_raw(done - r0);
      if (fault_t0 != 0) {
        stats_.fault_us.add(done - fault_t0);
        m_fault_us_.record_raw(done - fault_t0);
      }
    }
    cv_.notify_all();
    return page_ref(this, v, page_id);
  }
}

void page_cache::unpin(std::size_t frame_idx, std::size_t declared_bytes) {
  {
    const std::scoped_lock lock(mu_);
    frame& f = frames_[frame_idx];
    assert(f.pins > 0);
    --f.pins;
    stats_.bytes_requested += declared_bytes;
    if (declared_bytes != 0 && obs::metrics_on()) {
      m_bytes_requested_.add_raw(declared_bytes);
    }
  }
  cv_.notify_all();
}

page_cache::cache_stats page_cache::stats() const {
  const std::scoped_lock lock(mu_);
  return stats_;
}

obs::json page_cache::heat_json(std::size_t top_n) const {
  struct hot {
    std::size_t frame;
    std::uint64_t page;
    std::uint64_t touches;
  };
  std::vector<hot> hots;
  {
    const std::scoped_lock lock(mu_);
    hots.reserve(frames_.size());
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].touches > 0) {
        hots.push_back({i, frames_[i].page_id, frames_[i].touches});
      }
    }
  }
  const std::size_t n = std::min(top_n, hots.size());
  std::partial_sort(hots.begin(), hots.begin() + static_cast<std::ptrdiff_t>(n),
                    hots.end(),
                    [](const hot& a, const hot& b) { return a.touches > b.touches; });
  obs::json out = obs::json::object();
  out["frames"] = static_cast<std::uint64_t>(frames_.size());
  out["touched"] = static_cast<std::uint64_t>(hots.size());
  obs::json top = obs::json::array();
  for (std::size_t i = 0; i < n; ++i) {
    obs::json entry = obs::json::object();
    entry["frame"] = static_cast<std::uint64_t>(hots[i].frame);
    // kNoPage means the frame was fault-evicted after its touches.
    entry["page"] = hots[i].page;
    entry["touches"] = hots[i].touches;
    top.push_back(std::move(entry));
  }
  out["top"] = std::move(top);
  return out;
}

void page_cache::reset_stats() {
  // Intentionally local: only this cache's stats_ snapshot is zeroed.  The
  // cache.* registry counters are *process-wide monotonic* — shared by
  // every page_cache in the process and diffed by the time-series sampler
  // and report tooling, so resetting them here would corrupt other caches'
  // numbers and break rate computation.  Consumers wanting a window over
  // the registry take their own before/after deltas
  // (tests/storage/page_cache_test.cpp pins this contract).
  const std::scoped_lock lock(mu_);
  stats_ = cache_stats{};
}

}  // namespace sfg::storage
