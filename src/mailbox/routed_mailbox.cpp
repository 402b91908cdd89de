#include "mailbox/routed_mailbox.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace sfg::mailbox {

routed_mailbox::routed_mailbox(runtime::comm& c, config cfg)
    : comm_(&c),
      cfg_(cfg),
      router_(cfg.topo, c.size()),
      channels_(static_cast<std::size_t>(c.size())),
      next_packet_seq_(static_cast<std::size_t>(c.size()), 0),
      seen_packet_seq_(static_cast<std::size_t>(c.size())),
      flow_salt_(util::splitmix64(c.next_context_id())) {
  assert(c.size() <= 0xffff);  // record_header packs ranks into 16 bits
  if (cfg_.min_aggregation_bytes > cfg_.aggregation_bytes) {
    cfg_.min_aggregation_bytes = cfg_.aggregation_bytes;
  }
  for (auto& ch : channels_) {
    ch.watermark = cfg_.aggregation_bytes;
    ch.reserve_hint = cfg_.min_aggregation_bytes;
  }
  // Traffic-matrix rows are sized once here so every update site — even
  // with the matrix enabled — is a plain indexed increment, never a grow.
  const auto p = static_cast<std::size_t>(c.size());
  matrix_.sent_records.assign(p, 0);
  matrix_.sent_bytes.assign(p, 0);
  matrix_.delivered_records.assign(p, 0);
  matrix_.delivered_bytes.assign(p, 0);
  matrix_.dup_records.assign(p, 0);
  matrix_.flush_packets.assign(p, 0);
  matrix_.flush_bytes.assign(p, 0);
}

void routed_mailbox::reset_matrix() {
  for (auto* row :
       {&matrix_.sent_records, &matrix_.sent_bytes, &matrix_.delivered_records,
        &matrix_.delivered_bytes, &matrix_.dup_records, &matrix_.flush_packets,
        &matrix_.flush_bytes}) {
    std::fill(row->begin(), row->end(), 0);
  }
  matrix_.latency_us = obs::histogram{};
  local_open_ts_us_ = 0;
}

obs::json routed_mailbox::matrix_json() const {
  const auto row = [](const std::vector<std::uint64_t>& v) {
    obs::json arr = obs::json::array();
    for (const auto x : v) arr.push_back(x);
    return arr;
  };
  obs::json out = obs::json::object();
  out["rank"] = comm_->rank();
  out["sent_records"] = row(matrix_.sent_records);
  out["sent_bytes"] = row(matrix_.sent_bytes);
  out["delivered_records"] = row(matrix_.delivered_records);
  out["delivered_bytes"] = row(matrix_.delivered_bytes);
  out["dup_records"] = row(matrix_.dup_records);
  out["flush_packets"] = row(matrix_.flush_packets);
  out["flush_bytes"] = row(matrix_.flush_bytes);
  out["latency_us"] = matrix_.latency_us.to_json();
  // Counter snapshot taken at the same instant as the rows: the validator
  // cross-checks row sums against these (and against the sfg-metrics/1
  // per-rank mailbox counters, which are per-traversal and thus <=).
  obs::json totals = obs::json::object();
  totals["records_sent"] = stats_.records_sent;
  totals["records_delivered"] = stats_.records_delivered;
  totals["packets_sent"] = stats_.packets_sent;
  totals["packet_bytes_sent"] = stats_.packet_bytes_sent;
  totals["packets_dropped_duplicate"] = stats_.packets_dropped_duplicate;
  out["totals"] = std::move(totals);
  return out;
}

void routed_mailbox::flush_channel(int next_hop, flush_reason why) {
  auto& ch = channels_[static_cast<std::size_t>(next_hop)];
  if (ch.buf.empty()) return;
  const obs::phase_scope pscope(obs::phase::mbox_flush);
  obs::trace_span span("mailbox.flush", "mailbox");
  span.set_arg("bytes", static_cast<double>(ch.buf.size()));
  const packet_header ph{next_packet_seq_[static_cast<std::size_t>(next_hop)]++,
                         ch.open_ts_us};
  std::memcpy(ch.buf.data(), &ph, sizeof(ph));
  // Critical-path edge, sender half: the receiver records the matching
  // mbox_recv with the same (sender, seq) key, which is exact — seqs are
  // assigned per (sender, next-hop) pair.  The packet's trace flow starts
  // inside this flush's slice and ends where the receiver delivers it.
  obs::span_mark(obs::span_kind::mbox_send,
                 static_cast<std::uint64_t>(next_hop), ph.seq);
  if (obs::trace_on()) {
    obs::trace_flow('s', "mailbox.packet", "mailbox",
                    packet_flow_id(comm_->rank(), next_hop, ph.seq));
  }
  ch.open_ts_us = 0;
  ++stats_.packets_sent;
  stats_.packet_bytes_sent += ch.buf.size();
  const std::size_t sent_bytes = ch.buf.size();
  if (obs::metrics_on()) {
    matrix_.flush_packets[static_cast<std::size_t>(next_hop)] += 1;
    matrix_.flush_bytes[static_cast<std::size_t>(next_hop)] += sent_bytes;
  }
  // Adapt the watermark: filling up means traffic can sustain bigger
  // packets; aging out means it cannot — shrink so records stop waiting.
  switch (why) {
    case flush_reason::size:
      ++stats_.flushes_by_size;
      ch.watermark = std::min(cfg_.aggregation_bytes, ch.watermark * 2);
      break;
    case flush_reason::age:
      ++stats_.flushes_by_age;
      ch.watermark = std::max(cfg_.min_aggregation_bytes, ch.watermark / 2);
      break;
    case flush_reason::manual:
      break;
  }
  ch.reserve_hint =
      std::min(sent_bytes * 2, cfg_.aggregation_bytes + sent_bytes);
  // The arena becomes the packet payload wholesale; a moved-from vector is
  // empty, so the channel is ready for its next open.
  comm_->send(next_hop, cfg_.tag, std::move(ch.buf));
  ch.buf.clear();
  // The capacity left with the move (it is the in-flight packet now, the
  // transport's bytes, not the mailbox's); release it from the ledger.
  sync_channel_mem(ch);
  --dirty_count_;
  obs::flight_record(obs::flight_kind::mbox_flush, sent_bytes,
                     static_cast<std::uint64_t>(next_hop));
  if (obs::metrics_on()) {
    auto& reg = obs::metrics_registry::instance();
    reg.get_counter("mailbox.packets_sent").add_raw(1);
    reg.get_counter("mailbox.packet_bytes_sent").add_raw(sent_bytes);
    reg.get_histogram("mailbox.packet_bytes").record_raw(sent_bytes);
    if (why == flush_reason::age) {
      reg.get_counter("mailbox.flushes_by_age").add_raw(1);
    } else if (why == flush_reason::size) {
      reg.get_counter("mailbox.flushes_by_size").add_raw(1);
    }
  }
}

void routed_mailbox::tick() {
  ++tick_now_;
  if (dirty_count_ == 0) {
    dirty_hops_.clear();
    return;
  }
  // Memory pressure (obs/mem.hpp): stop sitting on buffered arenas — push
  // every dirty channel out now so their capacity can be released instead
  // of waiting for watermarks that may never fill under a shrunk budget.
  // The mailbox is single-threaded per rank, so this polls the level
  // rather than registering a callback.
  if (obs::mem_budget() != 0 &&
      obs::mem_pressure() != obs::mem_pressure_level::ok) {
    std::size_t flushed = 0;
    for (const int hop : dirty_hops_) {
      if (!channels_[static_cast<std::size_t>(hop)].buf.empty()) {
        flush_channel(hop, flush_reason::manual);
        ++flushed;
      }
    }
    dirty_hops_.clear();
    if (flushed != 0 && obs::metrics_on()) {
      obs::metrics_registry::instance()
          .get_counter("mem.pressure_mbox_flushes")
          .add_raw(flushed);
    }
    return;
  }
  if (cfg_.max_age_ticks == 0) return;
  // Compact dirty_hops_ while scanning: drop entries whose channel was
  // flushed (by size or manually) since they were recorded.
  std::size_t keep = 0;
  for (const int hop : dirty_hops_) {
    auto& ch = channels_[static_cast<std::size_t>(hop)];
    if (ch.buf.empty()) continue;
    if (tick_now_ - ch.opened_tick >= cfg_.max_age_ticks) {
      flush_channel(hop, flush_reason::age);
      continue;
    }
    dirty_hops_[keep++] = hop;
  }
  dirty_hops_.resize(keep);
}

void routed_mailbox::flush() {
  for (const int hop : dirty_hops_) flush_channel(hop, flush_reason::manual);
  dirty_hops_.clear();
  assert(dirty_count_ == 0);
}

bool routed_mailbox::idle() const {
  return local_arena_.empty() && local_scratch_.empty() && dirty_count_ == 0;
}

bool routed_mailbox::validate_packet(std::span<const std::byte> payload) const {
  const std::byte* data = payload.data();
  const std::size_t total = payload.size();
  const auto num_ranks = static_cast<std::uint32_t>(comm_->size());
  std::size_t off = sizeof(packet_header);
  while (off < total) {
    if (total - off < sizeof(record_header)) return false;
    record_header hdr;
    std::memcpy(&hdr, data + off, sizeof(hdr));
    off += sizeof(hdr);
    if (hdr.size > total - off) return false;
    if (hdr.final_dest >= num_ranks) return false;
    off += hdr.size;
  }
  return true;
}

void routed_mailbox::note_rejected_packet(int source, std::size_t bytes) {
  // Structurally corrupt: the whole packet is rejected *without* consuming
  // its sequence number, so an intact retransmission still delivers.
  ++stats_.packets_rejected;
  obs::flight_record(obs::flight_kind::mbox_reject,
                     static_cast<std::uint64_t>(source), bytes);
  if (obs::metrics_on()) {
    obs::metrics_registry::instance()
        .get_counter("mailbox.packets_rejected")
        .add_raw(1);
  }
}

void routed_mailbox::note_duplicate_packet(int source, std::uint64_t seq,
                                           std::span<const std::byte> payload) {
  // Transport replay (fault layer): this packet was already consumed;
  // replaying it would double-deliver every record inside.
  ++stats_.packets_dropped_duplicate;
  if (obs::metrics_on()) {
    // Attribute the suppressed would-be deliveries per origin, so the
    // conservation identity (arrived == delivered + dup-rejected per pair)
    // is checkable from the matrix alone.  The payload already passed
    // validate_packet; this is a cold path, replays are rare.
    const std::byte* data = payload.data();
    const std::size_t total = payload.size();
    const auto self = static_cast<std::uint16_t>(comm_->rank());
    std::size_t off = sizeof(packet_header);
    while (off < total) {
      record_header hdr;
      std::memcpy(&hdr, data + off, sizeof(hdr));
      off += sizeof(hdr);
      if (hdr.final_dest == self) matrix_.dup_records[hdr.origin] += 1;
      off += hdr.size;
    }
  }
  obs::trace_instant("mailbox.dup_drop", "mailbox", "seq",
                     static_cast<double>(seq));
  obs::flight_record(obs::flight_kind::mbox_dup_drop,
                     static_cast<std::uint64_t>(source), seq);
  if (obs::metrics_on()) {
    obs::metrics_registry::instance()
        .get_counter("mailbox.packets_dropped_duplicate")
        .add_raw(1);
  }
}

}  // namespace sfg::mailbox
