/// \file trace.hpp
/// Async-trace timeline: Chrome-trace/Perfetto-loadable spans and instant
/// events for the runtime's asynchronous machinery — traversal phases,
/// mailbox flushes, termination waves, page-cache evictions and I/O.
///
/// Model: each in-process rank is a trace *process* (pid = rank, named
/// "rank N" via metadata events), so Perfetto draws one timeline row per
/// rank and a stalled rank is visually obvious next to its peers.  The
/// thread id is a small stable per-OS-thread index.
///
/// Cost model matches metrics.hpp: everything is gated on the cached
/// `trace_on()` bool.  Disabled, a trace_span is one predictable branch —
/// no clock read, no allocation.  Enabled, events append to a bounded
/// in-memory buffer (never any I/O on the hot path); the buffer is
/// serialized by write_chrome_trace(), automatically at process exit when
/// SFG_TRACE=<path> is set and the process recorded any event.
///
/// Event names and categories must be string literals (or otherwise
/// outlive the process): events store the pointers, not copies.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace sfg::obs {

/// The cached-bool gate for tracing (SFG_TRACE or set_trace_enabled).
[[nodiscard]] inline bool trace_on() noexcept {
  return detail::any_on(detail::kTraceBit);
}

void set_trace_enabled(bool on);

/// Microseconds since the process trace epoch (first trace use).
[[nodiscard]] std::uint64_t trace_now_us() noexcept;

namespace detail {

struct trace_event {
  const char* name;
  const char* cat;
  char ph;  ///< 'X' complete, 'i' instant, 's'/'t'/'f' flow
  std::int32_t pid;
  std::uint32_t tid;
  std::uint64_t ts_us;
  std::uint64_t dur_us;
  const char* arg_name;  ///< nullptr when the event carries no argument
  double arg_value;
  std::uint64_t flow_id = 0;  ///< binds 's'/'t'/'f' events into one flow
};

void trace_emit(const trace_event& ev) noexcept;
[[nodiscard]] std::int32_t trace_pid() noexcept;
[[nodiscard]] std::uint32_t trace_tid() noexcept;

}  // namespace detail

/// RAII span: emits one complete ('X') event covering its lifetime.
class trace_span {
 public:
  explicit trace_span(const char* name, const char* cat = "sfg") noexcept
      : name_(name), cat_(cat) {
    if (trace_on()) {
      armed_ = true;
      start_us_ = trace_now_us();
    }
  }
  ~trace_span() {
    if (armed_) finish();
  }
  trace_span(const trace_span&) = delete;
  trace_span& operator=(const trace_span&) = delete;

  /// Attach one numeric argument, shown in the Perfetto detail pane.
  void set_arg(const char* arg_name, double value) noexcept {
    arg_name_ = arg_name;
    arg_value_ = value;
  }

 private:
  void finish() noexcept;

  const char* name_;
  const char* cat_;
  const char* arg_name_ = nullptr;
  double arg_value_ = 0;
  std::uint64_t start_us_ = 0;
  bool armed_ = false;
};

/// Zero-duration marker ('i').
void trace_instant(const char* name, const char* cat = "sfg",
                   const char* arg_name = nullptr, double arg_value = 0) noexcept;

/// Complete event with an explicitly measured interval — for spans whose
/// start and end live in different calls (e.g. a termination wave that
/// opens in begin_wave and closes in a later poll).
void trace_complete(const char* name, const char* cat, std::uint64_t start_us,
                    std::uint64_t dur_us, const char* arg_name = nullptr,
                    double arg_value = 0) noexcept;

/// Chrome-trace flow event ('s' start / 't' step / 'f' end).  Events with
/// the same (cat, id) pair are drawn as one arrow across rank rows — the
/// mailbox draws one per packet, from the sender's flush to the
/// receiver's delivery (routed_mailbox.hpp).
void trace_flow(char ph, const char* name, const char* cat,
                std::uint64_t id) noexcept;

/// Serialize everything recorded so far as Chrome trace JSON
/// ({"traceEvents": [...]}) loadable in chrome://tracing and Perfetto.
/// Safe to call multiple times (e.g. once per CLI run plus at exit).
void write_chrome_trace(const std::string& path);

/// The recorded events as a json document (tests and in-process checks).
[[nodiscard]] json trace_to_json();

void trace_clear();
[[nodiscard]] std::size_t trace_event_count();
/// Events discarded after the in-memory buffer cap was reached.
[[nodiscard]] std::uint64_t trace_dropped_count();

}  // namespace sfg::obs
