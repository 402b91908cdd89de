#include "obs/mem.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "obs/flight.hpp"
#include "util/log.hpp"

namespace sfg::obs {

namespace {

struct mem_globals {
  std::mutex mu;
  /// Indexed by rank + 1 (slot 0 is the non-rank main thread).  Blocks are
  /// never deallocated, so pointers cached in trackers stay valid for the
  /// process lifetime (mem_clear zeroes in place).
  std::vector<std::unique_ptr<detail::mem_rank_slots>> slots;

  // Process totals (sum over every rank and subsystem).
  std::atomic<std::uint64_t> total_current{0};
  std::atomic<std::uint64_t> total_peak{0};

  // Ground truth: first RSS ever sampled and the peak since.
  std::atomic<std::uint64_t> baseline_rss{0};
  std::atomic<std::uint64_t> peak_rss{0};
  std::atomic<std::uint64_t> last_rss{0};
  std::atomic<std::uint64_t> last_max_rss{0};

  // Pressure ladder.
  std::atomic<std::uint32_t> level{0};  ///< mem_pressure_level
  std::atomic<std::uint64_t> to_soft{0};
  std::atomic<std::uint64_t> to_hard{0};
  std::atomic<std::uint64_t> to_ok{0};

  /// Pending transitions awaiting mem_pressure_poll: a tiny overwrite-
  /// oldest ring so a charge never blocks on the dispatch machinery.
  /// flight events and callbacks fire from the poll, not the charge, so a
  /// callback may take the very lock its subsystem held while charging.
  static constexpr std::size_t kPendingCap = 32;
  struct pending_slot {
    std::atomic<std::uint32_t> level{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  pending_slot pending[kPendingCap];
  std::atomic<std::uint64_t> pending_head{0};  ///< total transitions queued
  std::atomic<std::uint64_t> pending_tail{0};  ///< total dispatched
  std::mutex dispatch_mu;

  // Registered pressure callbacks.
  std::mutex cb_mu;
  int next_cb_id = 1;
  std::vector<std::pair<int, std::function<void(mem_pressure_level)>>> cbs;
};

/// Never destroyed, as the slots' comment promises: trackers owned by
/// other statics (the flight rings) release their charges during exit,
/// after a destructor of this object would already have run.
mem_globals& globals() {
  static auto* const g = new mem_globals;
  return *g;
}

/// Ladder thresholds with hysteresis: rise at 3/4 (soft) and 1/1 (hard)
/// of the budget, fall at 7/8 (hard->soft) and 1/2 (->ok), so freeing
/// just past a boundary doesn't flap the level.
mem_pressure_level desired_level(mem_pressure_level cur, std::uint64_t total,
                                 std::uint64_t budget) noexcept {
  const std::uint64_t soft_up = budget - budget / 4;
  switch (cur) {
    case mem_pressure_level::ok:
      if (total >= budget) return mem_pressure_level::hard;
      if (total >= soft_up) return mem_pressure_level::soft;
      return mem_pressure_level::ok;
    case mem_pressure_level::soft:
      if (total >= budget) return mem_pressure_level::hard;
      if (total < budget / 2) return mem_pressure_level::ok;
      return mem_pressure_level::soft;
    case mem_pressure_level::hard:
      if (total < budget / 2) return mem_pressure_level::ok;
      if (total < budget - budget / 8) return mem_pressure_level::soft;
      return mem_pressure_level::hard;
  }
  return mem_pressure_level::ok;
}

/// Queue one entered level for the poll-side dispatch (flight event +
/// registry mirror + callbacks) and bump the transition counters.
/// Allocation-free; overwrites the oldest pending entry when full.
void note_transition(mem_globals& g, mem_pressure_level entered,
                     std::uint64_t total) noexcept {
  switch (entered) {
    case mem_pressure_level::soft:
      g.to_soft.fetch_add(1, std::memory_order_relaxed);
      break;
    case mem_pressure_level::hard:
      g.to_hard.fetch_add(1, std::memory_order_relaxed);
      break;
    case mem_pressure_level::ok:
      g.to_ok.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  const std::uint64_t i =
      g.pending_head.fetch_add(1, std::memory_order_relaxed);
  auto& slot = g.pending[i % mem_globals::kPendingCap];
  slot.level.store(static_cast<std::uint32_t>(entered),
                   std::memory_order_relaxed);
  slot.bytes.store(total, std::memory_order_release);
}

/// Evaluate the ladder after a charge moved the process total.  The CAS
/// winner records every level stepped through (ok->hard queues to_soft
/// then to_hard), so a single large charge cannot skip a rung unseen.
void pressure_update(mem_globals& g, std::uint64_t total) noexcept {
  const std::uint64_t budget = mem_budget();
  if (budget == 0) return;
  for (;;) {
    auto cur = static_cast<mem_pressure_level>(
        g.level.load(std::memory_order_relaxed));
    const mem_pressure_level want = desired_level(cur, total, budget);
    if (want == cur) return;
    auto expected = static_cast<std::uint32_t>(cur);
    if (g.level.compare_exchange_weak(expected,
                                      static_cast<std::uint32_t>(want),
                                      std::memory_order_relaxed)) {
      const int from = static_cast<int>(cur);
      const int to = static_cast<int>(want);
      const int step = to > from ? 1 : -1;
      for (int l = from + step; l != to + step; l += step) {
        note_transition(g, static_cast<mem_pressure_level>(l), total);
      }
      return;
    }
  }
}

/// Read /proc/self/statm with raw syscalls (no FILE*, no allocation) and
/// return resident bytes; 0 on any failure (non-Linux fallback is
/// getrusage-only).
std::uint64_t read_statm_rss() noexcept {
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  // statm: size resident shared text lib data dt (in pages).
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  const char* p = buf;
  while (*p >= '0' && *p <= '9') size_pages = size_pages * 10 + (*p++ - '0');
  while (*p == ' ') ++p;
  while (*p >= '0' && *p <= '9') {
    resident_pages = resident_pages * 10 + (*p++ - '0');
  }
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return resident_pages * page;
}

constexpr const char* kSubsystemNames[kMemSubsystems] = {
    "mailbox_arena",   "cache_frames",      "queue_buckets", "frontier",
    "builder_scratch", "partitioner_cache", "obs",           "other"};

}  // namespace

const char* mem_subsystem_name(mem_subsystem s) noexcept {
  const auto i = static_cast<std::size_t>(s);
  return i < kMemSubsystems ? kSubsystemNames[i] : "unknown";
}

const char* mem_pressure_name(mem_pressure_level p) noexcept {
  switch (p) {
    case mem_pressure_level::ok: return "ok";
    case mem_pressure_level::soft: return "soft";
    case mem_pressure_level::hard: return "hard";
  }
  return "unknown";
}

namespace detail {

mem_rank_slots* mem_slots_for(int rank) {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (g.slots.size() <= idx) g.slots.resize(idx + 1);
  if (!g.slots[idx]) g.slots[idx] = std::make_unique<mem_rank_slots>();
  return g.slots[idx].get();
}

void mem_apply(mem_rank_slots* slots, mem_subsystem s,
               std::int64_t delta) noexcept {
  auto& g = globals();
  const auto i = static_cast<std::size_t>(s);
  if (delta >= 0) {
    const auto d = static_cast<std::uint64_t>(delta);
    const std::uint64_t cur =
        slots->current[i].fetch_add(d, std::memory_order_relaxed) + d;
    std::uint64_t peak = slots->peak[i].load(std::memory_order_relaxed);
    while (peak < cur && !slots->peak[i].compare_exchange_weak(
                             peak, cur, std::memory_order_relaxed)) {
    }
    const std::uint64_t rtotal =
        slots->total_current.fetch_add(d, std::memory_order_relaxed) + d;
    std::uint64_t rpeak = slots->total_peak.load(std::memory_order_relaxed);
    while (rpeak < rtotal && !slots->total_peak.compare_exchange_weak(
                                 rpeak, rtotal, std::memory_order_relaxed)) {
    }
    const std::uint64_t total =
        g.total_current.fetch_add(d, std::memory_order_relaxed) + d;
    std::uint64_t gpeak = g.total_peak.load(std::memory_order_relaxed);
    while (gpeak < total && !g.total_peak.compare_exchange_weak(
                                gpeak, total, std::memory_order_relaxed)) {
    }
    pressure_update(g, total);
  } else {
    // Saturating release: an unpaired release (gate flipped mid-life, a
    // clear between charge and release) clamps at zero instead of
    // wrapping the ledger to 2^64 bytes.
    const auto d = static_cast<std::uint64_t>(-delta);
    const auto sat_sub = [](std::atomic<std::uint64_t>& v, std::uint64_t n) {
      std::uint64_t cur = v.load(std::memory_order_relaxed);
      while (!v.compare_exchange_weak(cur, cur > n ? cur - n : 0,
                                      std::memory_order_relaxed)) {
      }
      return cur > n ? cur - n : 0;
    };
    sat_sub(slots->current[i], d);
    sat_sub(slots->total_current, d);
    const std::uint64_t total = sat_sub(g.total_current, d);
    pressure_update(g, total);
  }
}

void mem_pressure_poll_slow() {
  auto& g = globals();
  if (g.pending_tail.load(std::memory_order_relaxed) ==
      g.pending_head.load(std::memory_order_acquire)) {
    return;
  }
  // One dispatcher at a time; a losing poller's transitions are drained
  // by the winner.
  if (!g.dispatch_mu.try_lock()) return;
  const std::unique_lock lock(g.dispatch_mu, std::adopt_lock);
  std::uint64_t tail = g.pending_tail.load(std::memory_order_relaxed);
  std::uint64_t head = g.pending_head.load(std::memory_order_acquire);
  if (head - tail > mem_globals::kPendingCap) {
    tail = head - mem_globals::kPendingCap;  // overwritten entries are gone
  }
  const bool mirror = metrics_on();
  for (; tail != head; ++tail) {
    auto& slot = g.pending[tail % mem_globals::kPendingCap];
    const auto level = static_cast<mem_pressure_level>(
        slot.level.load(std::memory_order_acquire));
    const std::uint64_t bytes = slot.bytes.load(std::memory_order_relaxed);
    flight_record(flight_kind::mem_pressure,
                  static_cast<std::uint64_t>(level), bytes);
    if (mirror) {
      static counter& c_soft =
          metrics_registry::instance().get_counter("mem.pressure_to_soft");
      static counter& c_hard =
          metrics_registry::instance().get_counter("mem.pressure_to_hard");
      static counter& c_ok =
          metrics_registry::instance().get_counter("mem.pressure_to_ok");
      switch (level) {
        case mem_pressure_level::soft: c_soft.add_raw(1); break;
        case mem_pressure_level::hard: c_hard.add_raw(1); break;
        case mem_pressure_level::ok: c_ok.add_raw(1); break;
      }
    }
    {
      // Invoked under cb_mu so mem_unregister_pressure_callback is a hard
      // synchronization point: once it returns, the callback can never run
      // again — subsystems unregister in their destructors and rely on it.
      const std::scoped_lock cb_lock(g.cb_mu);
      for (const auto& [id, cb] : g.cbs) cb(level);
    }
  }
  g.pending_tail.store(tail, std::memory_order_release);
}

}  // namespace detail

void mem_tracker::adjust(std::uint64_t bytes) noexcept {
  if (slot_ == nullptr) slot_ = detail::mem_slots_for(util::thread_rank());
  detail::mem_apply(slot_, sub_,
                    static_cast<std::int64_t>(bytes) -
                        static_cast<std::int64_t>(charged_));
  charged_ = bytes;
}

std::uint64_t mem_current(mem_subsystem s, int rank) noexcept {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (idx >= g.slots.size() || !g.slots[idx]) return 0;
  return g.slots[idx]->current[static_cast<std::size_t>(s)].load(
      std::memory_order_relaxed);
}

std::uint64_t mem_peak(mem_subsystem s, int rank) noexcept {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (idx >= g.slots.size() || !g.slots[idx]) return 0;
  return g.slots[idx]->peak[static_cast<std::size_t>(s)].load(
      std::memory_order_relaxed);
}

std::uint64_t mem_accounted_current() noexcept {
  return globals().total_current.load(std::memory_order_relaxed);
}

std::uint64_t mem_accounted_peak() noexcept {
  return globals().total_peak.load(std::memory_order_relaxed);
}

std::uint64_t mem_rank_accounted_current() noexcept {
  return detail::mem_slots_for(util::thread_rank())
      ->total_current.load(std::memory_order_relaxed);
}

void mem_clear() {
  auto& g = globals();
  const std::scoped_lock lock(g.mu);
  for (auto& s : g.slots) {
    if (!s) continue;
    for (std::size_t i = 0; i < kMemSubsystems; ++i) {
      s->current[i].store(0, std::memory_order_relaxed);
      s->peak[i].store(0, std::memory_order_relaxed);
    }
    s->total_current.store(0, std::memory_order_relaxed);
    s->total_peak.store(0, std::memory_order_relaxed);
  }
  g.total_current.store(0, std::memory_order_relaxed);
  g.total_peak.store(0, std::memory_order_relaxed);
  g.level.store(0, std::memory_order_relaxed);
  g.to_soft.store(0, std::memory_order_relaxed);
  g.to_hard.store(0, std::memory_order_relaxed);
  g.to_ok.store(0, std::memory_order_relaxed);
  g.pending_tail.store(g.pending_head.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------------

mem_rss_sample mem_sample_rss() noexcept {
  auto& g = globals();
  mem_rss_sample out;
  out.rss_bytes = read_statm_rss();
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is KiB on Linux.
    out.max_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  }
  if (out.rss_bytes == 0) out.rss_bytes = out.max_rss_bytes;
  std::uint64_t expected = 0;
  g.baseline_rss.compare_exchange_strong(expected, out.rss_bytes,
                                         std::memory_order_relaxed);
  std::uint64_t peak = g.peak_rss.load(std::memory_order_relaxed);
  while (peak < out.rss_bytes &&
         !g.peak_rss.compare_exchange_weak(peak, out.rss_bytes,
                                           std::memory_order_relaxed)) {
  }
  g.last_rss.store(out.rss_bytes, std::memory_order_relaxed);
  g.last_max_rss.store(out.max_rss_bytes, std::memory_order_relaxed);
  return out;
}

std::uint64_t mem_baseline_rss() noexcept {
  return globals().baseline_rss.load(std::memory_order_relaxed);
}

std::uint64_t mem_peak_rss() noexcept {
  return globals().peak_rss.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Pressure ladder
// ---------------------------------------------------------------------------

mem_pressure_level mem_pressure() noexcept {
  return static_cast<mem_pressure_level>(
      globals().level.load(std::memory_order_relaxed));
}

mem_pressure_transitions mem_pressure_counts() noexcept {
  auto& g = globals();
  return {g.to_soft.load(std::memory_order_relaxed),
          g.to_hard.load(std::memory_order_relaxed),
          g.to_ok.load(std::memory_order_relaxed)};
}

int mem_register_pressure_callback(
    std::function<void(mem_pressure_level)> cb) {
  auto& g = globals();
  const std::scoped_lock lock(g.cb_mu);
  const int id = g.next_cb_id++;
  g.cbs.emplace_back(id, std::move(cb));
  return id;
}

void mem_unregister_pressure_callback(int id) {
  auto& g = globals();
  const std::scoped_lock lock(g.cb_mu);
  std::erase_if(g.cbs, [id](const auto& e) { return e.first == id; });
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

mem_stats mem_snapshot(int rank) noexcept {
  mem_stats out;
  double* fields[kMemSubsystems] = {
      &out.mailbox_arena, &out.cache_frames,    &out.queue_buckets,
      &out.frontier,      &out.builder_scratch, &out.partitioner_cache,
      &out.obs,           &out.other};
  double sum = 0;
  for (std::size_t i = 0; i < kMemSubsystems; ++i) {
    const auto s = static_cast<mem_subsystem>(i);
    const auto cur = static_cast<double>(mem_current(s, rank));
    *fields[i] = cur;
    sum += cur;
    const std::uint64_t peak =
        std::max(mem_peak(s, rank), mem_current(s, rank));
    if (peak > 0) out.peak_log2.add(peak);
  }
  out.accounted = sum;
  return out;
}

void mem_publish_registry() {
  auto& reg = metrics_registry::instance();
  const int rank = util::thread_rank();
  const mem_stats s = mem_snapshot(rank);
  const double* fields[kMemSubsystems] = {
      &s.mailbox_arena, &s.cache_frames,    &s.queue_buckets,
      &s.frontier,      &s.builder_scratch, &s.partitioner_cache,
      &s.obs,           &s.other};
  char name[64];
  for (std::size_t i = 0; i < kMemSubsystems; ++i) {
    std::snprintf(name, sizeof name, "mem.%s_bytes", kSubsystemNames[i]);
    reg.get_gauge(name).set_raw(*fields[i]);
  }
  reg.get_gauge("mem.accounted_bytes")
      .set_raw(static_cast<double>(mem_accounted_current()));
  reg.get_histogram("mem.peak_bytes").merge_raw(s.peak_log2);
}

json mem_rank_json(int rank) {
  json out = json::object();
  out["rank"] = static_cast<std::int64_t>(rank);
  json subsystems = json::object();
  std::uint64_t sum_current = 0;
  for (std::size_t i = 0; i < kMemSubsystems; ++i) {
    const auto s = static_cast<mem_subsystem>(i);
    // Read current before peak and clamp: peak trails current by one CAS
    // under concurrent charges, and the report invariant (peak >= current)
    // must hold for the validator.
    const std::uint64_t cur = mem_current(s, rank);
    const std::uint64_t peak = std::max(mem_peak(s, rank), cur);
    sum_current += cur;
    json entry = json::object();
    entry["current"] = cur;
    entry["peak"] = peak;
    subsystems[kSubsystemNames[i]] = std::move(entry);
  }
  out["subsystems"] = std::move(subsystems);
  out["accounted_current"] = sum_current;
  auto* slots = detail::mem_slots_for(rank);
  out["accounted_peak"] =
      std::max(slots->total_peak.load(std::memory_order_relaxed),
               slots->total_current.load(std::memory_order_relaxed));
  return out;
}

json mem_section_json(json rows) {
  json out = json::object();
  out["schema"] = "sfg-mem/1";
  out["ranks"] = static_cast<std::uint64_t>(rows.size());
  out["budget"] = mem_budget();

  std::uint64_t acc_current = 0;
  std::uint64_t acc_peak = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const json& row = rows.at(r);
    if (const json* v = row.find("accounted_current");
        v != nullptr && v->is_number()) {
      acc_current += v->as_u64();
    }
    if (const json* v = row.find("accounted_peak");
        v != nullptr && v->is_number()) {
      acc_peak += v->as_u64();
    }
  }
  out["accounted_current"] = acc_current;
  out["accounted_peak"] = acc_peak;

  const mem_rss_sample rss = mem_sample_rss();
  out["rss_bytes"] = rss.rss_bytes;
  out["max_rss_bytes"] = rss.max_rss_bytes;
  out["baseline_rss_bytes"] = mem_baseline_rss();
  out["peak_rss_bytes"] = mem_peak_rss();

  // Coverage: how much of the process's RSS growth the ledger explains.
  // The baseline (first sample ever) subtracts the binary, the runtime
  // and the test scaffolding; when RSS never grew past it, fall back to
  // the whole RSS so the ratio stays defined.
  const std::uint64_t grown = mem_peak_rss() > mem_baseline_rss()
                                  ? mem_peak_rss() - mem_baseline_rss()
                                  : rss.rss_bytes;
  out["coverage"] = grown > 0 ? static_cast<double>(acc_peak) /
                                    static_cast<double>(grown)
                              : 0.0;

  const mem_pressure_transitions t = mem_pressure_counts();
  json pressure = json::object();
  pressure["level"] = mem_pressure_name(mem_pressure());
  pressure["to_soft"] = t.to_soft;
  pressure["to_hard"] = t.to_hard;
  pressure["to_ok"] = t.to_ok;
  out["pressure"] = std::move(pressure);

  out["rows"] = std::move(rows);
  return out;
}

bool mem_validate(const json& section, std::vector<std::string>* errors) {
  bool ok = true;
  const auto fail = [&](std::string why) {
    if (errors != nullptr) errors->push_back(std::move(why));
    ok = false;
  };
  // Byte counts, rank counts and transition tallies are non-negative
  // integers; reading them through get_int rejects any other kind.
  const auto u64 = [](const json& obj, const char* key) {
    const json* v = obj.find(key);
    return v != nullptr ? v->get_int<std::uint64_t>() : std::nullopt;
  };
  if (!section.is_object()) {
    fail("mem section is not an object");
    return false;
  }
  const json* schema = section.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "sfg-mem/1") {
    fail("schema is not \"sfg-mem/1\"");
    return false;
  }
  const auto ranks = u64(section, "ranks");
  const json* rows = section.find("rows");
  if (!ranks || rows == nullptr || !rows->is_array() || rows->size() == 0 ||
      rows->size() != *ranks) {
    fail("\"rows\" is not a non-empty array matching an integer \"ranks\"");
    return false;
  }
  for (const char* key :
       {"budget", "accounted_current", "accounted_peak", "rss_bytes",
        "max_rss_bytes", "baseline_rss_bytes", "peak_rss_bytes"}) {
    if (!u64(section, key)) {
      fail(std::string("missing integer \"") + key + "\"");
    }
  }
  if (u64(section, "rss_bytes") == 0u) {
    fail("rss_bytes is zero (ground truth was never sampled)");
  }
  if (const json* v = section.find("coverage"); v == nullptr || !v->is_number()) {
    fail("missing numeric \"coverage\"");
  } else if (v->as_double() < 0) {
    fail("coverage is negative");
  }
  const json* pressure = section.find("pressure");
  if (pressure == nullptr || !pressure->is_object()) {
    fail("missing object \"pressure\"");
  } else {
    const json* level = pressure->find("level");
    if (level == nullptr || !level->is_string() ||
        (level->as_string() != "ok" && level->as_string() != "soft" &&
         level->as_string() != "hard")) {
      fail("pressure.level is not ok|soft|hard");
    }
    for (const char* key : {"to_soft", "to_hard", "to_ok"}) {
      if (!u64(*pressure, key)) {
        fail(std::string("pressure missing integer \"") + key + "\"");
      }
    }
  }
  std::uint64_t sum_current = 0;
  std::uint64_t sum_peak = 0;
  for (std::size_t r = 0; r < rows->size(); ++r) {
    const json& row = rows->at(r);
    const std::string where = "row " + std::to_string(r);
    const json* rank = row.find("rank");
    if (rank == nullptr || !rank->get_int<std::int64_t>()) {
      fail(where + " missing integer \"rank\"");
      continue;
    }
    const json* subsystems = row.find("subsystems");
    if (subsystems == nullptr || !subsystems->is_object()) {
      fail(where + " missing object \"subsystems\"");
      continue;
    }
    std::uint64_t row_sum = 0;
    std::uint64_t row_max_peak = 0;
    for (std::size_t i = 0; i < kMemSubsystems; ++i) {
      const json* entry = subsystems->find(kSubsystemNames[i]);
      if (entry == nullptr || !entry->is_object()) {
        fail(where + " missing subsystem \"" + kSubsystemNames[i] + "\"");
        continue;
      }
      const auto cur = u64(*entry, "current");
      const auto peak = u64(*entry, "peak");
      if (!cur || !peak) {
        fail(where + " subsystem \"" + kSubsystemNames[i] +
             "\" missing integer current/peak");
        continue;
      }
      if (*peak < *cur) {
        fail(where + " subsystem \"" + kSubsystemNames[i] +
             "\" peak < current");
      }
      row_sum += *cur;
      row_max_peak = std::max(row_max_peak, *peak);
    }
    const auto acc_cur = u64(row, "accounted_current");
    const auto acc_peak = u64(row, "accounted_peak");
    if (!acc_cur || !acc_peak) {
      fail(where + " missing integer accounted_current/accounted_peak");
      continue;
    }
    if (*acc_cur != row_sum) {
      fail(where + " accounted_current != sum of subsystem currents");
    }
    if (*acc_peak < *acc_cur || *acc_peak < row_max_peak) {
      fail(where + " accounted_peak below current total or a subsystem peak");
    }
    sum_current += *acc_cur;
    sum_peak += *acc_peak;
  }
  if (const auto v = u64(section, "accounted_current"); v && *v != sum_current) {
    fail("accounted_current != sum of row totals");
  }
  if (const auto v = u64(section, "accounted_peak"); v && *v != sum_peak) {
    fail("accounted_peak != sum of row peaks");
  }
  return ok;
}

}  // namespace sfg::obs
