/// \file trace_context.hpp
/// Sampled causal trace context for visitors (DESIGN.md §9).
///
/// A trace_ctx is one uint64 riding with a sampled visitor across ranks —
/// through visitor_queue::push, the routed mailbox's record framing, and
/// replica-chain forwarding — so the visitor's whole cross-rank causal
/// chain reconstructs as Chrome-trace flow events (trace.hpp).  Packing:
///
///   bit  63      sampled flag (a ctx of 0 means "not sampled")
///   bits 56..62  hop count, saturating at 127 (each mailbox routing hop
///                bumps it; distinguishes direct delivery from grid/torus
///                multi-hop and replica-chain forwarding)
///   bits 40..55  origin rank (16 bits, matching record_header's uint16)
///   bits  0..39  low 40 bits of the root vertex's locator bits — together
///                with the origin rank this forms the flow id, so two
///                concurrently-sampled visitors from different pushes get
///                distinct flows (modulo 2^40 vertex aliasing, acceptable
///                for sampling-grade attribution)
///
/// The flow id (ctx_flow_id) excludes the hop bits: every hop of one
/// sampled visitor shares a flow id, which is exactly what Chrome-trace
/// flow binding ('s'/'t'/'f' matched by cat+id) needs.
///
/// Sampling is 1-in-N per pushing thread (SFG_TRACE_SAMPLE=N or
/// set_trace_sample_rate), gated behind trace_on() so the whole feature is
/// a single predictable branch when tracing is disabled.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sfg::obs {

/// Packed causal context; 0 == "not sampled" (the common case on the wire).
using trace_ctx = std::uint64_t;

namespace ctx_detail {
inline constexpr std::uint64_t kSampledBit = std::uint64_t{1} << 63;
inline constexpr int kHopShift = 56;
inline constexpr std::uint64_t kHopMask = 0x7f;
inline constexpr int kOriginShift = 40;
inline constexpr std::uint64_t kOriginMask = 0xffff;
inline constexpr std::uint64_t kVertexMask = (std::uint64_t{1} << 40) - 1;
}  // namespace ctx_detail

[[nodiscard]] constexpr trace_ctx make_trace_ctx(int origin_rank,
                                                 std::uint64_t vertex_bits,
                                                 unsigned hops = 0) noexcept {
  using namespace ctx_detail;
  return kSampledBit |
         ((static_cast<std::uint64_t>(hops) & kHopMask) << kHopShift) |
         ((static_cast<std::uint64_t>(origin_rank) & kOriginMask) << kOriginShift) |
         (vertex_bits & kVertexMask);
}

[[nodiscard]] constexpr bool ctx_sampled(trace_ctx c) noexcept {
  return (c & ctx_detail::kSampledBit) != 0;
}
[[nodiscard]] constexpr unsigned ctx_hops(trace_ctx c) noexcept {
  return static_cast<unsigned>((c >> ctx_detail::kHopShift) & ctx_detail::kHopMask);
}
[[nodiscard]] constexpr int ctx_origin(trace_ctx c) noexcept {
  return static_cast<int>((c >> ctx_detail::kOriginShift) & ctx_detail::kOriginMask);
}
[[nodiscard]] constexpr std::uint64_t ctx_vertex(trace_ctx c) noexcept {
  return c & ctx_detail::kVertexMask;
}

/// One routing/forwarding hop happened; the hop count saturates rather
/// than wrapping into the origin bits.
[[nodiscard]] constexpr trace_ctx ctx_bump_hop(trace_ctx c) noexcept {
  using namespace ctx_detail;
  if (!ctx_sampled(c)) return c;  // unsampled stays unsampled
  const std::uint64_t hops = (c >> kHopShift) & kHopMask;
  if (hops == kHopMask) return c;
  return (c & ~(kHopMask << kHopShift)) | ((hops + 1) << kHopShift);
}

/// Flow-binding id: origin + vertex, hop-invariant (all hops of one sampled
/// visitor bind into one Chrome-trace flow).
[[nodiscard]] constexpr std::uint64_t ctx_flow_id(trace_ctx c) noexcept {
  using namespace ctx_detail;
  return c & ((kOriginMask << kOriginShift) | kVertexMask);
}

/// Current 1-in-N sampling rate; 0 = sampling off.
[[nodiscard]] inline std::uint32_t trace_sample_rate() noexcept {
  return detail::toggles.sample.load(std::memory_order_relaxed);
}

/// Programmatic override of SFG_TRACE_SAMPLE (0 disables).
inline void set_trace_sample_rate(std::uint32_t n) noexcept {
  detail::toggles.sample.store(n, std::memory_order_relaxed);
}

/// Sampling decision at a push site: returns a fresh sampled ctx for
/// 1-in-N pushes on this thread, 0 otherwise.  Off (tracing disabled or
/// rate 0) this is one branch and touches no thread-local state.
[[nodiscard]] inline trace_ctx sample_trace_ctx(int origin_rank,
                                                std::uint64_t vertex_bits) noexcept {
  if (!trace_on()) return 0;
  const std::uint32_t rate = trace_sample_rate();
  if (rate == 0) return 0;
  thread_local std::uint32_t countdown = 0;
  if (countdown == 0) {
    countdown = rate - 1;  // exactly 1-in-rate pushes sampled per thread
    return make_trace_ctx(origin_rank, vertex_bits);
  }
  --countdown;
  return 0;
}

}  // namespace sfg::obs
