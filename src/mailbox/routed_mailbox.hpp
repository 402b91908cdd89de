/// \file routed_mailbox.hpp
/// The paper's *mailbox* abstraction (§V): `send(rank, data)` /
/// `receive()`, implemented over the routing-and-aggregation network of
/// §III-B.  Records destined for the same next hop are packed into one
/// aggregated packet; intermediate ranks unpack, deliver their own records
/// and re-aggregate the rest toward the final destination.
///
/// Ownership of the receive loop stays with the caller (the distributed
/// visitor queue): the caller pulls `runtime::message`s off its comm inbox
/// and feeds packets with the mailbox's tag to process_packet().  This
/// mirrors how the paper multiplexes visitor traffic and termination-
/// detection control traffic over one transport.
///
/// Hot-path layout (DESIGN.md §8): every channel is one flat, pre-reserved
/// byte arena — records are framed with a compact 8-byte header and
/// appended in place; flush stamps the packet header and *moves* the whole
/// arena into the transport (comm's rvalue send), so a record is copied
/// exactly once between the caller and the wire.  Self-sends land in a
/// flat local arena drained with span views — no per-record allocation
/// anywhere.
///
/// Every packet opens with a per-(sender, receiver) sequence number, and
/// process_packet() drops packets whose sequence it has already seen
/// (exact O(1) sliding-window dedup, see seq_window.hpp).  This gives the
/// mailbox exactly-once record semantics over an at-least-once transport —
/// required for the fault-injection layer (runtime/fault.hpp), which may
/// duplicate messages in flight, and for the exact-count algorithms
/// (k-core) that cannot tolerate replays.  The same (sender, receiver,
/// seq) key is the packet's causal identity: the critical-path spans
/// match on it, and with tracing on each packet is one Chrome-trace flow
/// arrow, from the sender's flush to the receiver's delivery.
///
/// Flushing is adaptive: a channel flushes when it reaches its effective
/// size watermark, or when tick() finds it older than `max_age_ticks`.
/// Age flushes halve the channel's effective watermark (traffic is too
/// sparse to fill big packets — stop sitting on records); size flushes
/// grow it back toward `aggregation_bytes`.  Both kinds are counted in
/// the stats and the obs metrics registry.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "mailbox/seq_window.hpp"
#include "mailbox/topology.hpp"
#include "obs/flight.hpp"
#include "obs/histogram.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/span.hpp"
#include "obs/stats_fields.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"

namespace sfg::mailbox {

class routed_mailbox {
 public:
  struct config {
    topology topo = topology::direct;
    /// Flush a channel once its buffered payload reaches this size (the
    /// ceiling of the adaptive watermark).
    std::size_t aggregation_bytes = 1 << 13;
    /// Tag used for this mailbox's packets on the underlying comm.
    int tag = 0;
    /// tick() force-flushes a channel whose oldest record has waited this
    /// many ticks (one tick per owner poll iteration).  0 disables.
    std::uint32_t max_age_ticks = 64;
    /// Floor of the adaptive size watermark (age flushes halve it down to
    /// this; size flushes double it back up to aggregation_bytes).
    std::size_t min_aggregation_bytes = 1 << 9;
  };

  /// Delivery callbacks are called once per delivered record as
  /// f(origin_rank, record_bytes).  The span aliases the mailbox's internal
  /// arena / the packet payload and is only valid for the duration of the
  /// call.  process_packet/drain_local are templated on the callable so a
  /// caller's lambda inlines into the record walk — an std::function here
  /// costs an indirect call per record on the hottest path in the system.
  routed_mailbox(runtime::comm& c, config cfg);

  /// Queue one record for delivery to `final_dest` (may be this rank).
  /// Buffered until the channel fills or flush()/tick() pushes it out.
  /// Defined inline below: a record is framed by one resize of its arena
  /// (which reallocates only when the capacity runs out) and memcpys of
  /// the header and payload into the new tail.  Visitors send fixed-size
  /// records, so inlined, the payload copy has a constant size.
  void send(int final_dest, std::span<const std::byte> record);

  /// Count one record of `bytes` payload that the caller addressed to this
  /// rank and applied where it was made instead of send()ing it: sent and
  /// delivered at once, plus the traffic matrix's self cell under the data
  /// gate.  Quiescence sums (sent == delivered), the matrix conservation
  /// law and per-level record deltas keep their meaning.
  void count_local_delivery(std::size_t bytes) noexcept {
    ++stats_.records_sent;
    ++stats_.records_delivered;
    if (obs::metrics_on()) {
      const auto self = static_cast<std::size_t>(comm_->rank());
      matrix_.sent_records[self] += 1;
      matrix_.sent_bytes[self] += bytes;
      matrix_.delivered_records[self] += 1;
      matrix_.delivered_bytes[self] += bytes;
    }
  }

  /// Feed one packet received from the comm (message.tag must equal
  /// config::tag).  Records addressed to this rank are handed to `deliver`;
  /// records in transit are re-buffered toward their next hop.  Returns
  /// the number of records delivered locally.  Structurally invalid
  /// (truncated / corrupt) packets are rejected whole, *before* their
  /// sequence number is consumed, so a retransmit can still succeed.
  template <typename F>
  std::size_t process_packet(const runtime::message& m, F&& deliver);

  /// Deliver records this rank sent to itself.  Returns count delivered.
  template <typename F>
  std::size_t drain_local(F&& deliver);

  /// Advance the age clock: call once per owner poll iteration.  Channels
  /// older than cfg.max_age_ticks are flushed and their watermark adapts.
  void tick();

  /// Push out every non-empty channel buffer.  Must be called when the
  /// owner goes idle, or in-transit records would sit in aggregation
  /// buffers forever and termination detection would (correctly) never
  /// fire.
  void flush();

  /// True when nothing is buffered for sending and no local self-records
  /// are pending.  Part of the owner's "locally idle" predicate.
  [[nodiscard]] bool idle() const;

  [[nodiscard]] const router& route() const noexcept { return router_; }

  struct mailbox_stats {
    std::uint64_t records_sent = 0;       ///< records originated here
    std::uint64_t records_delivered = 0;  ///< records consumed here
    std::uint64_t records_forwarded = 0;  ///< records relayed through here
    std::uint64_t packets_sent = 0;       ///< aggregated packets emitted
    std::uint64_t packet_bytes_sent = 0;
    std::uint64_t packets_dropped_duplicate = 0;  ///< transport replays dropped
    std::uint64_t packets_rejected = 0;  ///< structurally invalid packets
    std::uint64_t flushes_by_size = 0;   ///< watermark-triggered flushes
    std::uint64_t flushes_by_age = 0;    ///< tick-age-triggered flushes
  };
  [[nodiscard]] const mailbox_stats& stats() const noexcept { return stats_; }
  void reset_stats() {
    stats_ = mailbox_stats{};
    reset_matrix();
  }

  /// Per-pair traffic accounting, one row per peer rank, owned by this
  /// rank (the data-movement layer, DESIGN.md §12).  Updated only while
  /// obs::metrics_on(); all rows are preallocated at construction so
  /// the enabled path is allocation-free too.  Invariants at quiescence:
  ///   sum(sent_records)      == stats().records_sent
  ///   sum(delivered_records) == stats().records_delivered
  ///   sum(flush_packets)     == stats().packets_sent
  ///   sum(flush_bytes)       == stats().packet_bytes_sent
  ///   delivered_records on rank d, index o == sent_records on rank o,
  ///   index d (exactly-once conservation; the chaos suite asserts it
  ///   under duplicate/reorder fault schedules).
  struct traffic_matrix {
    std::vector<std::uint64_t> sent_records;       ///< [final_dest] originated here
    std::vector<std::uint64_t> sent_bytes;         ///< [final_dest] payload bytes
    std::vector<std::uint64_t> delivered_records;  ///< [origin] consumed here
    std::vector<std::uint64_t> delivered_bytes;    ///< [origin] payload bytes
    /// [origin] records addressed here that arrived inside a dup-dropped
    /// packet (would-be double deliveries the seq window suppressed).
    std::vector<std::uint64_t> dup_records;
    std::vector<std::uint64_t> flush_packets;  ///< [next_hop] wire packets
    std::vector<std::uint64_t> flush_bytes;    ///< [next_hop] wire bytes (incl. headers)
    /// Enqueue->deliver latency (µs): packet-open timestamp to record walk,
    /// one sample per packet opened while the matrix was live.
    obs::histogram latency_us;
  };
  [[nodiscard]] const traffic_matrix& matrix() const noexcept { return matrix_; }
  void reset_matrix();

  /// This rank's matrix rows plus a consistent mailbox-counter snapshot as
  /// one JSON fragment — all ranks' fragments aggregate into the
  /// `sfg-comm-matrix/1` report section (obs::gather_json).
  [[nodiscard]] obs::json matrix_json() const;

 private:
  /// First bytes of every packet: the per-(sender, this-receiver) sequence
  /// number used for duplicate suppression, plus the channel-open
  /// timestamp (µs, steady clock) for the enqueue->deliver latency
  /// histogram.  `open_ts_us == 0` means "not stamped" — the stamp costs a
  /// clock read, so it is taken only while the traffic matrix is live.
  /// Ranks are threads in one process, so sender and receiver share the
  /// clock.
  struct packet_header {
    std::uint64_t seq;
    std::uint64_t open_ts_us;
  };
  static_assert(sizeof(packet_header) == 16);

  [[nodiscard]] static std::uint64_t now_us() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Compact per-record framing: ranks fit 16 bits by construction
  /// (vertex_locator reserves exactly 16 owner bits), so the header is 8
  /// bytes instead of the 12 a naive int triple would take.  The payload
  /// follows the header directly; `size` is its length in bytes.
  struct record_header {
    std::uint16_t final_dest;
    std::uint16_t origin;
    std::uint32_t size;
  };
  static_assert(sizeof(record_header) == 8);

  /// Write one frame (header, payload) at `out`, the tail an arena has
  /// just been grown by.
  static void write_frame(std::byte* out, const record_header& hdr,
                          std::span<const std::byte> record) noexcept {
    std::memcpy(out, &hdr, sizeof(hdr));
    if (!record.empty()) {
      std::memcpy(out + sizeof(hdr), record.data(), record.size());
    }
  }

  /// Chrome-trace flow id of one packet: the (sender, receiver, seq) key
  /// the mailbox stamps on it, packed exactly for ranks below 2^16 and a
  /// channel's first 2^32 packets, then XORed with this mailbox
  /// generation's salt so two traversals' packets never share an id.  The
  /// sender's flush and the receiver's delivery compute the same id.
  [[nodiscard]] std::uint64_t packet_flow_id(int sender, int receiver,
                                             std::uint64_t seq) const noexcept {
    return flow_salt_ ^ (static_cast<std::uint64_t>(sender) << 48 |
                         static_cast<std::uint64_t>(receiver) << 32 |
                         (seq & 0xffff'ffffu));
  }

  enum class flush_reason { size, age, manual };

  /// One next-hop aggregation arena plus its adaptive flush state.
  struct channel {
    std::vector<std::byte> buf;
    std::uint64_t opened_tick = 0;    ///< tick() count when buf went non-empty
    std::uint64_t open_ts_us = 0;     ///< latency sample stamp; 0 = unsampled
    std::size_t watermark = 0;        ///< current effective flush size
    /// Bytes to pre-reserve on open.  Flushing *moves* the arena into the
    /// transport (capacity leaves with it), so each open must allocate;
    /// tracking ~2x the last packet's size keeps that to one right-sized
    /// malloc instead of reserving the whole watermark for a packet that
    /// may carry a handful of records.
    std::size_t reserve_hint = 0;
    /// Capacity bytes currently charged to the memory ledger for this
    /// channel (mem_subsystem::mailbox_arena), synced at capacity
    /// transitions — open, append growth, flush move-out.
    std::size_t mem_charged = 0;
  };

  /// Append a record to the buffer for its next hop (or local arena).
  void route_record(std::uint16_t origin, int final_dest,
                    std::span<const std::byte> record);
  void flush_channel(int next_hop, flush_reason why);

  /// Walk a packet payload checking that every record fits; true iff the
  /// packet is structurally sound end to end.
  [[nodiscard]] bool validate_packet(std::span<const std::byte> payload) const;

  /// Cold paths of process_packet, kept out of the template body: stats +
  /// trace + metrics + flight recorder for rejected / replayed packets.
  /// The duplicate path receives the (already validated) payload so the
  /// traffic matrix can attribute the suppressed records per origin.
  void note_rejected_packet(int source, std::size_t bytes);
  void note_duplicate_packet(int source, std::uint64_t seq,
                             std::span<const std::byte> payload);

  runtime::comm* comm_;
  config cfg_;
  router router_;
  /// Aggregation arena per next-hop rank (indexed by rank id; only the
  /// O(sqrt p) legal next hops are ever non-empty).
  std::vector<channel> channels_;
  /// Hops with a non-empty arena (may hold stale entries; compacted by
  /// tick/flush).  Bounded by the legal-next-hop count.
  std::vector<int> dirty_hops_;
  std::size_t dirty_count_ = 0;  ///< exact count of non-empty channels
  std::uint64_t tick_now_ = 0;
  /// Self-sends: flat arena of (record_header, payload) frames.  Drained
  /// double-buffered so handlers can send to self mid-drain.
  std::vector<std::byte> local_arena_;
  std::vector<std::byte> local_scratch_;
  bool draining_local_ = false;
  /// Next packet sequence number toward each next hop; a (sender, hop)
  /// pair is a unique channel, so a per-hop counter gives receiver-unique
  /// packet ids.
  std::vector<std::uint64_t> next_packet_seq_;
  /// Exact sliding-window dedup of consumed packet sequences, per source.
  std::vector<seq_window> seen_packet_seq_;
  /// packet_flow_id's salt, from the context id this mailbox shares with
  /// its peers on the other ranks (runtime::comm::next_context_id).
  std::uint64_t flow_salt_;
  mailbox_stats stats_;
  /// Per-pair traffic rows (preallocated; updated under metrics_on()).
  traffic_matrix matrix_;
  /// Latency stamp for the local arena (self-sends), same rule.
  std::uint64_t local_open_ts_us_ = 0;
  /// Sum of per-channel mem_charged, so a capacity sync is O(1) instead of
  /// an O(ranks) walk over channels_.
  std::uint64_t channels_mem_charged_ = 0;
  /// One ledger entry for everything this mailbox buffers: the per-hop
  /// aggregation arenas plus the local double buffer.  Synced at capacity
  /// transitions, so bytes between sync points (a mid-append vector grow)
  /// are undercounted only until the next flush/open.
  obs::mem_tracker arena_mem_{obs::mem_subsystem::mailbox_arena};

  /// Re-sync `ch`'s capacity into the ledger; call whenever its buffer's
  /// capacity may have changed.  Unchanged: one compare.
  void sync_channel_mem(channel& ch) noexcept {
    const std::size_t cap = ch.buf.capacity();
    if (cap == ch.mem_charged) return;
    channels_mem_charged_ += cap;
    channels_mem_charged_ -= ch.mem_charged;
    ch.mem_charged = cap;
    sync_arena_mem();
  }
  void sync_arena_mem() noexcept {
    arena_mem_.set(channels_mem_charged_ + local_arena_.capacity() +
                   local_scratch_.capacity());
  }
};

inline void routed_mailbox::send(int final_dest,
                                 std::span<const std::byte> record) {
  ++stats_.records_sent;
  if (obs::metrics_on()) {
    matrix_.sent_records[static_cast<std::size_t>(final_dest)] += 1;
    matrix_.sent_bytes[static_cast<std::size_t>(final_dest)] += record.size();
  }
  route_record(static_cast<std::uint16_t>(comm_->rank()), final_dest, record);
}

inline void routed_mailbox::route_record(std::uint16_t origin, int final_dest,
                                         std::span<const std::byte> record) {
  // Phase attribution: framing + arena appends are `mbox_pack`; a
  // watermark-triggered flush below nests out into `mbox_flush`.
  const obs::phase_scope pscope(obs::phase::mbox_pack);
  assert(final_dest >= 0 && final_dest < comm_->size());
  assert(record.size() <= 0xffff'ffffu);
  const record_header hdr{static_cast<std::uint16_t>(final_dest), origin,
                          static_cast<std::uint32_t>(record.size())};
  const std::size_t frame = sizeof(hdr) + record.size();
  if (final_dest == comm_->rank()) {
    // Self-sends go to the flat local arena, framed exactly like a packet
    // record; drain_local hands out span views into it (no per-record
    // allocation, see the zero-alloc test).
    auto& arena = draining_local_ ? local_scratch_ : local_arena_;
    if (arena.empty() && local_open_ts_us_ == 0 && obs::metrics_on()) {
      // Stamped like a remote channel open; the drain records one latency
      // sample per round.
      local_open_ts_us_ = now_us();
    }
    const std::size_t at = arena.size();
    arena.resize(at + frame);
    write_frame(arena.data() + at, hdr, record);
    sync_arena_mem();
    return;
  }
  const int hop = router_.next_hop(comm_->rank(), final_dest);
  auto& ch = channels_[static_cast<std::size_t>(hop)];
  if (ch.buf.empty()) {
    // Size the fresh arena from the last packet, not the watermark: a
    // sparse channel would pay a watermark-sized malloc for a tiny packet.
    // The sequence number is stamped at flush time so buffers never carry
    // a stale one.
    ch.buf.reserve(std::max(
        ch.reserve_hint,
        sizeof(packet_header) + sizeof(record_header) + record.size()));
    ch.buf.resize(sizeof(packet_header));
    ch.opened_tick = tick_now_;
    ch.open_ts_us = obs::metrics_on() ? now_us() : 0;
    dirty_hops_.push_back(hop);
    ++dirty_count_;
  }
  const std::size_t at = ch.buf.size();
  ch.buf.resize(at + frame);
  write_frame(ch.buf.data() + at, hdr, record);
  sync_channel_mem(ch);
  if (ch.buf.size() >= ch.watermark) flush_channel(hop, flush_reason::size);
}

template <typename F>
std::size_t routed_mailbox::process_packet(const runtime::message& m,
                                           F&& deliver) {
  assert(m.tag == cfg_.tag);
  if (m.payload.size() < sizeof(packet_header) || !validate_packet(m.payload)) {
    note_rejected_packet(m.source, m.payload.size());
    return 0;
  }
  packet_header ph;
  std::memcpy(&ph, m.payload.data(), sizeof(ph));
  if (!seen_packet_seq_[static_cast<std::size_t>(m.source)].first_time(ph.seq)) {
    note_duplicate_packet(m.source, ph.seq, m.payload);
    return 0;
  }
  // Critical-path edge, receiver half: (source, seq) matches the sender's
  // mbox_send marker exactly (obs/span.hpp, critpath.cpp).  The trace
  // flow closes here, once per packet that passed dedup: a replay that
  // slipped through would end its flow twice.
  obs::span_mark(obs::span_kind::mbox_recv,
                 static_cast<std::uint64_t>(m.source), ph.seq);
  if (obs::trace_on()) {
    obs::trace_flow('f', "mailbox.packet", "mailbox",
                    packet_flow_id(m.source, comm_->rank(), ph.seq));
  }
  const bool mx = obs::metrics_on();
  if (mx && ph.open_ts_us != 0) {
    const std::uint64_t now = now_us();
    matrix_.latency_us.add(now > ph.open_ts_us ? now - ph.open_ts_us : 0);
  }
  std::size_t delivered = 0;
  std::size_t off = sizeof(packet_header);
  const std::byte* data = m.payload.data();
  const std::size_t total = m.payload.size();
  const int self = comm_->rank();
  while (off < total) {
    record_header hdr;
    std::memcpy(&hdr, data + off, sizeof(hdr));
    off += sizeof(hdr);
    const std::span<const std::byte> record(data + off, hdr.size);
    off += hdr.size;
    if (static_cast<int>(hdr.final_dest) == self) {
      ++stats_.records_delivered;
      ++delivered;
      if (mx) {
        matrix_.delivered_records[hdr.origin] += 1;
        matrix_.delivered_bytes[hdr.origin] += hdr.size;
      }
      deliver(static_cast<int>(hdr.origin), record);
    } else {
      ++stats_.records_forwarded;
      route_record(hdr.origin, static_cast<int>(hdr.final_dest), record);
    }
  }
  obs::flight_record(obs::flight_kind::mbox_packet, delivered, total);
  return delivered;
}

template <typename F>
std::size_t routed_mailbox::drain_local(F&& deliver) {
  // Handlers can send to this same rank mid-drain (a visitor visiting a
  // local vertex pushes more visitors here); those land in local_scratch_
  // while we walk the frozen arena, then the buffers swap for the next
  // round.  Re-entrant drain calls (deliver -> drain_local) are no-ops.
  if (draining_local_) return 0;
  draining_local_ = true;
  const bool mx = obs::metrics_on();
  std::size_t delivered = 0;
  while (!local_arena_.empty()) {
    if (local_open_ts_us_ != 0) {
      // One latency sample per drain round (self-delivery "packet").
      if (mx) {
        const std::uint64_t now = now_us();
        matrix_.latency_us.add(now > local_open_ts_us_ ? now - local_open_ts_us_
                                                       : 0);
      }
      local_open_ts_us_ = 0;
    }
    const std::byte* data = local_arena_.data();
    const std::size_t total = local_arena_.size();
    std::size_t off = 0;
    while (off < total) {
      record_header hdr;
      assert(off + sizeof(hdr) <= total);
      std::memcpy(&hdr, data + off, sizeof(hdr));
      off += sizeof(hdr);
      assert(off + hdr.size <= total);
      ++stats_.records_delivered;
      ++delivered;
      if (mx) {
        matrix_.delivered_records[hdr.origin] += 1;
        matrix_.delivered_bytes[hdr.origin] += hdr.size;
      }
      deliver(static_cast<int>(hdr.origin),
              std::span<const std::byte>(data + off, hdr.size));
      off += hdr.size;
    }
    local_arena_.clear();
    std::swap(local_arena_, local_scratch_);
  }
  draining_local_ = false;
  sync_arena_mem();
  return delivered;
}

}  // namespace sfg::mailbox

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.
template <>
struct sfg::obs::stats_traits<sfg::mailbox::routed_mailbox::mailbox_stats> {
  using S = sfg::mailbox::routed_mailbox::mailbox_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"records_sent", &S::records_sent},
      stats_field{"records_delivered", &S::records_delivered},
      stats_field{"records_forwarded", &S::records_forwarded},
      stats_field{"packets_sent", &S::packets_sent},
      stats_field{"packet_bytes_sent", &S::packet_bytes_sent},
      stats_field{"packets_dropped_duplicate", &S::packets_dropped_duplicate},
      stats_field{"packets_rejected", &S::packets_rejected},
      stats_field{"flushes_by_size", &S::flushes_by_size},
      stats_field{"flushes_by_age", &S::flushes_by_age});
};
