#include "obs/trace.hpp"

#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <vector>

#include "util/log.hpp"

namespace sfg::obs {

namespace {

/// Hard cap on buffered events (~64 MB at 64 B/event): a runaway trace
/// degrades to counting drops instead of eating the heap.
constexpr std::size_t kMaxEvents = std::size_t{1} << 20;

struct trace_buffer {
  std::mutex mu;
  std::vector<detail::trace_event> events;
  std::uint64_t dropped = 0;
};

/// Never destroyed: the SFG_TRACE writer (metrics.cpp) runs from
/// std::atexit, and exit destroys a function-local static first used
/// after that registration before it calls the writer.
trace_buffer& buffer() {
  static auto* const b = new trace_buffer;
  return *b;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

std::uint64_t trace_now_us() noexcept {
  const auto d = std::chrono::steady_clock::now() - trace_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

void set_trace_enabled(bool on) { detail::set_switch(detail::kTraceBit, on); }

namespace detail {

std::int32_t trace_pid() noexcept {
  const int r = util::thread_rank();
  return r >= 0 ? r : 0;
}

std::uint32_t trace_tid() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void trace_emit(const trace_event& ev) noexcept {
  auto& b = buffer();
  const std::scoped_lock lock(b.mu);
  if (b.events.size() >= kMaxEvents) {
    ++b.dropped;
    return;
  }
  b.events.push_back(ev);
}

}  // namespace detail

void trace_span::finish() noexcept {
  const std::uint64_t end = trace_now_us();
  detail::trace_emit({name_, cat_, 'X', detail::trace_pid(), detail::trace_tid(),
                      start_us_, end - start_us_, arg_name_, arg_value_});
}

void trace_instant(const char* name, const char* cat, const char* arg_name,
                   double arg_value) noexcept {
  if (!trace_on()) return;
  detail::trace_emit({name, cat, 'i', detail::trace_pid(), detail::trace_tid(),
                      trace_now_us(), 0, arg_name, arg_value});
}

void trace_complete(const char* name, const char* cat, std::uint64_t start_us,
                    std::uint64_t dur_us, const char* arg_name,
                    double arg_value) noexcept {
  if (!trace_on()) return;
  detail::trace_emit({name, cat, 'X', detail::trace_pid(), detail::trace_tid(),
                      start_us, dur_us, arg_name, arg_value});
}

void trace_flow(char ph, const char* name, const char* cat,
                std::uint64_t id) noexcept {
  if (!trace_on()) return;
  detail::trace_emit({name, cat, ph, detail::trace_pid(), detail::trace_tid(),
                      trace_now_us(), 0, nullptr, 0, id});
}

namespace {

json event_to_json(const detail::trace_event& ev) {
  json o = json::object();
  o["name"] = ev.name;
  o["cat"] = ev.cat;
  o["ph"] = std::string(1, ev.ph);
  o["ts"] = ev.ts_us;
  if (ev.ph == 'X') o["dur"] = ev.dur_us;
  o["pid"] = static_cast<std::int64_t>(ev.pid);
  o["tid"] = static_cast<std::uint64_t>(ev.tid);
  if (ev.ph == 'i') o["s"] = "t";  // thread-scoped instant
  if (ev.ph == 's' || ev.ph == 't' || ev.ph == 'f') {
    o["id"] = ev.flow_id;
    // Bind the flow terminus to the enclosing slice like Chrome does.
    if (ev.ph == 'f') o["bp"] = "e";
  }
  if (ev.arg_name != nullptr) {
    json args = json::object();
    args[ev.arg_name] = ev.arg_value;
    o["args"] = std::move(args);
  }
  return o;
}

json metadata_event(const char* kind, std::int32_t pid, const std::string& name) {
  json o = json::object();
  o["name"] = kind;
  o["ph"] = "M";
  o["pid"] = static_cast<std::int64_t>(pid);
  o["tid"] = std::uint64_t{0};
  json args = json::object();
  args["name"] = name;
  o["args"] = std::move(args);
  return o;
}

}  // namespace

json trace_to_json() {
  auto& b = buffer();
  json events = json::array();
  std::set<std::int32_t> pids;
  {
    const std::scoped_lock lock(b.mu);
    for (const auto& ev : b.events) {
      events.push_back(event_to_json(ev));
      pids.insert(ev.pid);
    }
  }
  // Name each pid row "rank N" so the per-rank layout is self-describing.
  for (const auto pid : pids) {
    events.push_back(
        metadata_event("process_name", pid, "rank " + std::to_string(pid)));
  }
  json doc = json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  const std::uint64_t dropped = trace_dropped_count();
  if (dropped > 0) doc["sfg_dropped_events"] = dropped;
  return doc;
}

void write_chrome_trace(const std::string& path) {
  if (path.empty()) return;
  const json doc = trace_to_json();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    SFG_LOG_WARN << "trace: cannot open " << path << " for writing";
    return;
  }
  out << doc.dump() << '\n';
}

void trace_clear() {
  auto& b = buffer();
  const std::scoped_lock lock(b.mu);
  b.events.clear();
  b.dropped = 0;
}

std::size_t trace_event_count() {
  auto& b = buffer();
  const std::scoped_lock lock(b.mu);
  return b.events.size();
}

std::uint64_t trace_dropped_count() {
  auto& b = buffer();
  const std::scoped_lock lock(b.mu);
  return b.dropped;
}

}  // namespace sfg::obs
