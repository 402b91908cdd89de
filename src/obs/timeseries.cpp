#include "obs/timeseries.hpp"

#include <cinttypes>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/mem.hpp"
#include "util/log.hpp"

namespace sfg::obs {

namespace {

[[nodiscard]] std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide counters worth diffing into rates.  Fixed set: the sampler
/// resolves handles once per sampler, and `sfg_obs top` knows these names.
constexpr const char* kTracked[kTsTracked] = {
    "traversal.visitors_executed",
    "traversal.visitors_sent",
    "mailbox.packets_sent",
    "mailbox.packet_bytes_sent",
    "mailbox.packets_dropped_duplicate",
    "cache.hits",
    "cache.misses",
    "comm.bytes_sent",
    "cache.bytes_requested",
    "cache.dev_bytes_read",
};

/// Short keys for the JSONL "rates"/"totals" objects (the registry name
/// minus redundant prefixes; `sfg_obs top` labels come from here too).
constexpr const char* kTrackedKey[kTsTracked] = {
    "visitors_executed", "visitors_sent",   "packets_sent",
    "packet_bytes_sent", "packets_dropped", "cache_hits",
    "cache_misses",      "comm_bytes_sent", "bytes_requested",
    "dev_bytes_read",
};

/// One rate sample: the JSONL line is this struct spelled out with names.
struct ts_sample {
  std::uint64_t seq = 0;          ///< per-rank sample ordinal
  std::uint64_t ts_us = 0;        ///< steady-clock microseconds, monotonic
  std::uint64_t interval_us = 0;  ///< actual elapsed time this sample covers
  double phase_frac[kPhaseCount] = {};  ///< self-time fractions, sum <= 1
  double queue_depth = 0;         ///< live straggler gauges (this rank)
  double inflight_records = 0;    ///< may be negative (net receiver)
  double term_epoch = 0;
  double executed = 0;            ///< live visitors-executed gauge
  double executed_rate = 0;       ///< visitors/s on this rank
  double mem_accounted = 0;       ///< this rank's accounted bytes (mem.hpp)
  double mem_rss = 0;             ///< process RSS sampled with this line
  double rate[kTsTracked] = {};   ///< tracked registry counters, per second
  std::uint64_t total[kTsTracked] = {};  ///< their absolute values
};

/// One rank's sampler: prev-value state for diffing and the open JSONL
/// stream.  Owned by the global table, touched only by the
/// owning rank's thread (same single-writer discipline as flight.cpp).
struct ts_sampler {
  int rank = 0;
  std::uint64_t last_ns = 0;       ///< previous sample's clock
  std::uint64_t last_ts_us = 0;    ///< previous emitted ts_us (monotonicity)
  std::uint64_t recorded = 0;      ///< samples ever taken
  phase_stats prev_phase{};
  std::uint64_t prev_total[kTsTracked] = {};
  double prev_executed = 0;

  counter* tracked[kTsTracked] = {};
  gauge* g_depth = nullptr;
  gauge* g_inflight = nullptr;
  gauge* g_epoch = nullptr;
  gauge* g_executed = nullptr;

  std::FILE* out = nullptr;
  std::string line;  ///< reused serialization buffer (steady-state alloc-free)
  mem_tracker mem{mem_subsystem::obs};  ///< charges the sampler itself

  ~ts_sampler() {
    if (out != nullptr) std::fclose(out);
  }
};

/// Global sampler table, same shape as flight.cpp's ring table: slot
/// [rank + 1] (rank -1, the main thread outside launch, gets slot 0), a
/// generation counter to invalidate per-thread caches on reconfiguration,
/// and the interval/dir config (metrics.cpp applies the environment).
struct ts_globals {
  std::mutex mu;
  std::vector<std::unique_ptr<ts_sampler>> samplers;
  std::atomic<std::uint64_t> interval_ns{0};
  std::atomic<std::uint64_t> gen{1};
  std::string dir = ".";
};

ts_globals& globals() {
  static ts_globals g;
  return g;
}

[[nodiscard]] std::string rank_file_path(const std::string& dir, int rank) {
  return dir + "/sfg_ts_rank" + std::to_string(rank) + ".jsonl";
}

/// Create (or fetch) the sampler for `rank`.  Registry handles resolve
/// here, once; the JSONL file is truncated so each run starts clean.
ts_sampler* sampler_for_rank(int rank) {
  ts_globals& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(rank + 1);
  if (g.samplers.size() <= idx) g.samplers.resize(idx + 1);
  if (!g.samplers[idx]) {
    auto s = std::make_unique<ts_sampler>();
    s->rank = rank;
    auto& reg = metrics_registry::instance();
    for (std::size_t i = 0; i < kTsTracked; ++i) {
      s->tracked[i] = &reg.get_counter(kTracked[i]);
    }
    const std::string prefix = "traversal.rank" + std::to_string(rank);
    s->g_depth = &reg.get_gauge(prefix + ".queue_depth");
    s->g_inflight = &reg.get_gauge(prefix + ".inflight_records");
    s->g_epoch = &reg.get_gauge(prefix + ".term_epoch");
    s->g_executed = &reg.get_gauge(prefix + ".visitors_executed");
    s->line.reserve(1024);
    s->mem.set(sizeof(ts_sampler) + s->line.capacity());
    std::error_code ec;
    std::filesystem::create_directories(g.dir, ec);
    const std::string path = rank_file_path(g.dir, rank);
    s->out = std::fopen(path.c_str(), "w");
    if (s->out == nullptr) {
      SFG_LOG_WARN << "timeseries: cannot open " << path
                   << "; samples are dropped";
    }
    s->last_ns = now_ns();
    g.samplers[idx] = std::move(s);
  }
  return g.samplers[idx].get();
}

/// Thread-cached sampler pointer, invalidated by the generation counter
/// (set_ts_dir / set_ts_interval_ms / ts_clear bump it).
ts_sampler* sampler_for_thread() {
  struct tls_cache {
    std::uint64_t gen = 0;
    ts_sampler* s = nullptr;
  };
  thread_local tls_cache cache;
  const std::uint64_t gen = globals().gen.load(std::memory_order_acquire);
  if (cache.gen != gen) {
    cache.s = sampler_for_rank(util::thread_rank());
    cache.gen = gen;
  }
  return cache.s;
}

/// Look up without creating (test hooks must not spawn samplers/files).
ts_sampler* existing_sampler_for_thread() {
  ts_globals& g = globals();
  const std::scoped_lock lock(g.mu);
  const auto idx = static_cast<std::size_t>(util::thread_rank() + 1);
  if (idx >= g.samplers.size()) return nullptr;
  return g.samplers[idx].get();
}

// --- allocation-free JSONL append helpers ---------------------------------

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_f64(std::string& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.6g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void emit_line(ts_sampler& s, const ts_sample& m) {
  if (s.out == nullptr) return;
  std::string& l = s.line;
  l.clear();
  l += "{\"schema\":\"sfg-timeseries/1\",\"rank\":";
  char rbuf[16];
  const int rn = std::snprintf(rbuf, sizeof rbuf, "%d", s.rank);
  l.append(rbuf, static_cast<std::size_t>(rn));
  l += ",\"seq\":";
  append_u64(l, m.seq);
  l += ",\"ts_us\":";
  append_u64(l, m.ts_us);
  l += ",\"interval_us\":";
  append_u64(l, m.interval_us);
  l += ",\"phase\":{";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (i != 0) l += ',';
    l += '"';
    l += phase_name(static_cast<phase>(i));
    l += "\":";
    append_f64(l, m.phase_frac[i]);
  }
  l += "},\"gauges\":{\"queue_depth\":";
  append_f64(l, m.queue_depth);
  l += ",\"inflight_records\":";
  append_f64(l, m.inflight_records);
  l += ",\"term_epoch\":";
  append_f64(l, m.term_epoch);
  l += ",\"visitors_executed\":";
  append_f64(l, m.executed);
  l += ",\"executed_rate\":";
  append_f64(l, m.executed_rate);
  l += ",\"mem_accounted_bytes\":";
  append_f64(l, m.mem_accounted);
  l += ",\"mem_rss_bytes\":";
  append_f64(l, m.mem_rss);
  l += "},\"rates\":{";
  for (std::size_t i = 0; i < kTsTracked; ++i) {
    if (i != 0) l += ',';
    l += '"';
    l += kTrackedKey[i];
    l += "\":";
    append_f64(l, m.rate[i]);
  }
  l += "},\"totals\":{";
  for (std::size_t i = 0; i < kTsTracked; ++i) {
    if (i != 0) l += ',';
    l += '"';
    l += kTrackedKey[i];
    l += "\":";
    append_u64(l, m.total[i]);
  }
  l += "}}\n";
  std::fwrite(l.data(), 1, l.size(), s.out);
  std::fflush(s.out);  // `sfg_obs top` tails this live
}

void take_sample(ts_sampler& s, std::uint64_t now) {
  // Clamp the interval at 1us so rates stay finite for forced flushes that
  // land right after a timed sample.
  const std::uint64_t dt_ns = now > s.last_ns + 1000 ? now - s.last_ns : 1000;
  const double dt_s = static_cast<double>(dt_ns) / 1e9;

  ts_sample m;
  m.seq = s.recorded;
  const std::uint64_t now_us = now / 1000;
  m.ts_us = now_us > s.last_ts_us ? now_us : s.last_ts_us + 1;
  m.interval_us = dt_ns / 1000;

  // Phase self-time deltas as fractions of the elapsed interval.  Open
  // scopes aren't included until they close, so the sum can only undershoot;
  // a slight overshoot from clock granularity is normalized away.
  phase_stats cur = phase_snapshot();
  // Rank threads are recreated per launch with fresh (zeroed) phase TLS
  // while the sampler survives keyed by rank; a shrinking total means a
  // new thread took over this rank, so re-anchor instead of clamping every
  // phase delta to zero for the rest of the run.
  if (cur.total_ns() < s.prev_phase.total_ns()) s.prev_phase = phase_stats{};
  double frac_sum = 0;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto p = static_cast<phase>(i);
    const std::uint64_t c = cur.get(p);
    const std::uint64_t prev = s.prev_phase.get(p);
    const std::uint64_t d = c > prev ? c - prev : 0;
    m.phase_frac[i] = static_cast<double>(d) / static_cast<double>(dt_ns);
    frac_sum += m.phase_frac[i];
  }
  if (frac_sum > 1.0) {
    for (double& f : m.phase_frac) f /= frac_sum;
  }
  s.prev_phase = cur;

  for (std::size_t i = 0; i < kTsTracked; ++i) {
    const std::uint64_t v = s.tracked[i]->value();
    const std::uint64_t d = v > s.prev_total[i] ? v - s.prev_total[i] : 0;
    m.total[i] = v;
    m.rate[i] = static_cast<double>(d) / dt_s;
    s.prev_total[i] = v;
  }

  m.queue_depth = s.g_depth->value();
  m.inflight_records = s.g_inflight->value();
  m.term_epoch = s.g_epoch->value();
  m.executed = s.g_executed->value();
  const double de = m.executed - s.prev_executed;
  m.executed_rate = de > 0 ? de / dt_s : 0;
  s.prev_executed = m.executed;

  // Memory ledger + ground truth: ts implies mem_on(), and both reads are
  // allocation-free (raw syscalls for the RSS), so sample unconditionally.
  m.mem_accounted = static_cast<double>(mem_rank_accounted_current());
  m.mem_rss = static_cast<double>(mem_sample_rss().rss_bytes);

  ++s.recorded;
  s.last_ns = now;
  s.last_ts_us = m.ts_us;
  emit_line(s, m);
}

}  // namespace

const char* ts_tracked_name(std::size_t i) noexcept {
  return i < kTsTracked ? kTracked[i] : "";
}

namespace detail {

void ts_poll_slow(bool force) {
  const std::uint64_t interval =
      globals().interval_ns.load(std::memory_order_relaxed);
  if (interval == 0) return;
  ts_sampler* s = sampler_for_thread();
  if (s == nullptr) return;
  const std::uint64_t now = now_ns();
  if (!force && now - s->last_ns < interval) return;
  take_sample(*s, now);
}

}  // namespace detail

void set_ts_interval_ms(std::uint32_t ms) {
  ts_globals& g = globals();
  {
    const std::scoped_lock lock(g.mu);
    g.samplers.clear();
    g.interval_ns.store(static_cast<std::uint64_t>(ms) * 1'000'000,
                        std::memory_order_relaxed);
  }
  g.gen.fetch_add(1, std::memory_order_release);
  detail::set_switch(detail::kTimeseriesBit, ms > 0);
}

std::uint32_t ts_interval_ms() {
  return static_cast<std::uint32_t>(
      globals().interval_ns.load(std::memory_order_relaxed) / 1'000'000);
}

void set_ts_dir(std::string dir) {
  ts_globals& g = globals();
  {
    const std::scoped_lock lock(g.mu);
    g.samplers.clear();
    g.dir = dir.empty() ? "." : std::move(dir);
  }
  g.gen.fetch_add(1, std::memory_order_release);
}

std::string ts_dir() {
  ts_globals& g = globals();
  const std::scoped_lock lock(g.mu);
  return g.dir;
}

std::string ts_rank_file(int rank) {
  ts_globals& g = globals();
  const std::scoped_lock lock(g.mu);
  return rank_file_path(g.dir, rank);
}

std::uint64_t ts_samples_recorded() {
  const ts_sampler* s = existing_sampler_for_thread();
  return s != nullptr ? s->recorded : 0;
}

void ts_clear() {
  ts_globals& g = globals();
  {
    const std::scoped_lock lock(g.mu);
    g.samplers.clear();
  }
  g.gen.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// validation (sfg_obs check --timeseries, chaos acceptance test)
// ---------------------------------------------------------------------------

namespace {

void add_error(std::vector<std::string>* errors, std::size_t line_no,
               const std::string& why) {
  if (errors != nullptr) {
    errors->push_back("line " + std::to_string(line_no) + ": " + why);
  }
}

[[nodiscard]] bool check_number(const json& obj, const char* key,
                                double* out) {
  const json* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return false;
  if (out != nullptr) *out = v->as_double();
  return true;
}

}  // namespace

bool ts_validate_file(const std::string& path,
                      std::vector<std::string>* errors) {
  std::ifstream in(path);
  if (!in) {
    if (errors != nullptr) errors->push_back("cannot open " + path);
    return false;
  }
  bool ok = true;
  std::size_t line_no = 0;
  std::size_t samples = 0;
  bool have_prev = false;
  double prev_seq = 0;
  double prev_ts = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto parsed = json::parse(line);
    if (!parsed || !parsed->is_object()) {
      add_error(errors, line_no, "not a JSON object");
      ok = false;
      continue;
    }
    const json& obj = *parsed;
    ++samples;
    const json* schema = obj.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != "sfg-timeseries/1") {
      add_error(errors, line_no, "missing/incorrect schema tag");
      ok = false;
    }
    double seq = 0;
    double ts = 0;
    double iv = 0;
    if (!check_number(obj, "rank", nullptr)) {
      add_error(errors, line_no, "missing numeric rank");
      ok = false;
    }
    if (!check_number(obj, "seq", &seq)) {
      add_error(errors, line_no, "missing numeric seq");
      ok = false;
    }
    if (!check_number(obj, "ts_us", &ts)) {
      add_error(errors, line_no, "missing numeric ts_us");
      ok = false;
    }
    if (!check_number(obj, "interval_us", &iv)) {
      add_error(errors, line_no, "missing numeric interval_us");
      ok = false;
    }
    if (have_prev) {
      if (seq <= prev_seq) {
        add_error(errors, line_no, "seq not strictly increasing");
        ok = false;
      }
      if (ts <= prev_ts) {
        add_error(errors, line_no, "ts_us not strictly increasing");
        ok = false;
      }
    }
    prev_seq = seq;
    prev_ts = ts;
    have_prev = true;

    const json* ph = obj.find("phase");
    if (ph == nullptr || !ph->is_object()) {
      add_error(errors, line_no, "missing phase object");
      ok = false;
    } else {
      double sum = 0;
      for (const auto& [name, frac] : ph->items()) {
        if (!frac.is_number()) {
          add_error(errors, line_no, "phase." + name + " not numeric");
          ok = false;
          continue;
        }
        const double f = frac.as_double();
        if (f < 0.0 || f > 1.0 + 1e-9) {
          add_error(errors, line_no, "phase." + name + " outside [0, 1]");
          ok = false;
        }
        sum += f;
      }
      if (sum > 1.0 + 1e-6) {
        add_error(errors, line_no, "phase fractions sum above 1");
        ok = false;
      }
    }

    const json* rates = obj.find("rates");
    if (rates == nullptr || !rates->is_object()) {
      add_error(errors, line_no, "missing rates object");
      ok = false;
    } else {
      for (const auto& [name, rate] : rates->items()) {
        if (!rate.is_number() || rate.as_double() < 0.0) {
          add_error(errors, line_no, "rates." + name + " negative or non-numeric");
          ok = false;
        }
      }
    }
    if (const json* gauges = obj.find("gauges");
        gauges == nullptr || !gauges->is_object()) {
      add_error(errors, line_no, "missing gauges object");
      ok = false;
    }
  }
  if (samples == 0) {
    if (errors != nullptr) errors->push_back("no samples in " + path);
    ok = false;
  }
  return ok;
}

}  // namespace sfg::obs
