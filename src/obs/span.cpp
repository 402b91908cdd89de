#include "obs/span.hpp"

#include <array>

#include "obs/event_ring.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sfg::obs {

namespace {

/// Events are {t0_us, t1_us, kind, a, b}.
detail::event_log& span_log() {
  static detail::event_log l(5, 16384);
  return l;
}

}  // namespace

const char* span_kind_name(span_kind k) noexcept {
  switch (k) {
    case span_kind::phase_seg: return "phase_seg";
    case span_kind::mbox_send: return "mbox_send";
    case span_kind::mbox_recv: return "mbox_recv";
    case span_kind::bfs_level: return "bfs_level";
    case span_kind::trav_begin: return "trav_begin";
    case span_kind::trav_end: return "trav_end";
  }
  return "unknown";
}

namespace detail {

void span_append(span_kind k, std::uint64_t t0_us, std::uint64_t t1_us,
                 std::uint64_t a, std::uint64_t b) noexcept {
  span_log().append(std::array<std::uint64_t, 5>{
      t0_us, t1_us, static_cast<std::uint64_t>(k), a, b});
}

}  // namespace detail

void span_mark(span_kind k, std::uint64_t a, std::uint64_t b) noexcept {
  if (!spans_on()) return;
  const std::uint64_t now = trace_now_us();
  detail::span_append(k, now, now, a, b);
}

std::size_t span_capacity() { return span_log().capacity(); }

void set_span_capacity(std::size_t cap) { span_log().set_capacity(cap); }

void span_clear() { span_log().clear(); }

std::uint64_t span_recorded_here() noexcept { return span_log().recorded_here(); }

json span_rank_json() {
  const int rank = util::thread_rank();
  auto rings = span_log().snapshot(rank);
  const auto r = rings.empty() ? detail::event_log::ring_snapshot{}
                               : std::move(rings.front());
  json entry = json::object();
  entry["rank"] = static_cast<std::int64_t>(rank);
  entry["recorded"] = r.recorded;
  entry["dropped"] = r.dropped;
  json spans = json::array();
  for (std::size_t i = 0; i < r.words.size(); i += 5) {
    json sp = json::object();
    sp["k"] = span_kind_name(static_cast<span_kind>(r.words[i + 2]));
    sp["t0"] = r.words[i];
    sp["t1"] = r.words[i + 1];
    sp["a"] = r.words[i + 3];
    sp["b"] = r.words[i + 4];
    spans.push_back(std::move(sp));
  }
  entry["spans"] = std::move(spans);
  return entry;
}

}  // namespace sfg::obs
