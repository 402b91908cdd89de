#include "obs/flight.hpp"

#include <unistd.h>

#include <array>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "obs/event_ring.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sfg::obs {

namespace {

/// Events are {ts_us, kind, a, b}.
detail::event_log& flight_log() {
  static detail::event_log l(4, 1024);
  return l;
}

struct dump_path_state {
  std::mutex mu;
  std::string path;
};

dump_path_state& dump_path() {
  static dump_path_state s;
  return s;
}

extern "C" void flight_signal_handler(int sig) {
  // Best-effort black-box dump on the way down; not strictly
  // async-signal-safe, but the process is terminating anyway.
  flight_dump(sig == SIGTERM ? "sigterm" : "sigabrt");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

const char* flight_kind_name(flight_kind k) noexcept {
  switch (k) {
    case flight_kind::traversal_begin: return "traversal_begin";
    case flight_kind::traversal_end: return "traversal_end";
    case flight_kind::queue_batch: return "queue_batch";
    case flight_kind::mbox_flush: return "mbox_flush";
    case flight_kind::mbox_packet: return "mbox_packet";
    case flight_kind::mbox_dup_drop: return "mbox_dup_drop";
    case flight_kind::mbox_reject: return "mbox_reject";
    case flight_kind::term_wave: return "term_wave";
    case flight_kind::term_report: return "term_report";
    case flight_kind::term_done: return "term_done";
    case flight_kind::term_reject: return "term_reject";
    case flight_kind::fault_stall: return "fault_stall";
    case flight_kind::fault_duplicate: return "fault_duplicate";
    case flight_kind::fault_delay: return "fault_delay";
    case flight_kind::rank_fault: return "rank_fault";
    case flight_kind::mem_pressure: return "mem_pressure";
  }
  return "unknown";
}

namespace detail {

void flight_append(flight_kind k, std::uint64_t a, std::uint64_t b) noexcept {
  flight_log().append(std::array<std::uint64_t, 4>{
      trace_now_us(), static_cast<std::uint64_t>(k), a, b});
}

void install_flight_signal_dumps() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::signal(SIGTERM, &flight_signal_handler);
    std::signal(SIGABRT, &flight_signal_handler);
  });
}

}  // namespace detail

void set_flight_enabled(bool on) { detail::set_switch(detail::kFlightBit, on); }

std::size_t flight_capacity() { return flight_log().capacity(); }

void set_flight_capacity(std::size_t cap) { flight_log().set_capacity(cap); }

void flight_clear() { flight_log().clear(); }

std::uint64_t flight_recorded_here() noexcept { return flight_log().recorded_here(); }

json flight_to_json(const std::string& why) {
  json doc = json::object();
  doc["schema"] = "sfg-flight/1";
  doc["why"] = why;
  doc["capacity"] = static_cast<std::uint64_t>(flight_log().capacity());
  json ranks = json::array();
  for (const auto& r : flight_log().snapshot()) {
    json entry = json::object();
    entry["rank"] = static_cast<std::int64_t>(r.rank);
    entry["recorded"] = r.recorded;
    entry["dropped"] = r.dropped;
    json events = json::array();
    for (std::size_t i = 0; i < r.words.size(); i += 4) {
      json ev = json::object();
      ev["ts_us"] = r.words[i];
      ev["kind"] = flight_kind_name(static_cast<flight_kind>(r.words[i + 1]));
      ev["a"] = r.words[i + 2];
      ev["b"] = r.words[i + 3];
      events.push_back(std::move(ev));
    }
    entry["events"] = std::move(events);
    ranks.push_back(std::move(entry));
  }
  doc["ranks"] = std::move(ranks);
  return doc;
}

bool flight_write(const std::string& path, const std::string& why) {
  const json doc = flight_to_json(why);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    SFG_LOG_WARN << "flight: cannot open " << path << " for writing";
    return false;
  }
  out << doc.dump() << '\n';
  return true;
}

void flight_dump(const std::string& why) {
  std::string path = flight_dump_path();
  if (path.empty()) return;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    path += "/sfg_flight_" + std::to_string(::getpid()) + ".json";
  }
  flight_write(path, why);
}

std::string flight_dump_path() {
  auto& d = dump_path();
  const std::scoped_lock lock(d.mu);
  return d.path;
}

void set_flight_dump_path(std::string path) {
  auto& d = dump_path();
  const std::scoped_lock lock(d.mu);
  d.path = std::move(path);
}

}  // namespace sfg::obs
