#include "runtime/termination.hpp"

#include <cassert>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace sfg::runtime {

// ---------------------------------------------------------------------------
// tree_termination
// ---------------------------------------------------------------------------

tree_termination::tree_termination(comm& c, int control_tag)
    : comm_(&c), tag_(control_tag) {}

int tree_termination::num_children() const noexcept {
  const int r = comm_->rank();
  const int p = comm_->size();
  int n = 0;
  if (2 * r + 1 < p) ++n;
  if (2 * r + 2 < p) ++n;
  return n;
}

void tree_termination::send_control(int dest, const control_msg& m) {
  comm_->send_value(dest, tag_, m);
}

void tree_termination::begin_wave(std::uint32_t wave) {
  current_wave_ = wave;
  // The wave span feeds both the trace timeline and the registry's
  // wave-duration histogram, so stamp whenever either consumer is live.
  wave_start_us_ =
      (obs::trace_on() || obs::metrics_on()) ? obs::trace_now_us() : 0;
  obs::flight_record(obs::flight_kind::term_wave, wave);
  child_reports_ = 0;
  child_reported_[0] = child_reported_[1] = false;
  child_sent_sum_ = 0;
  child_recv_sum_ = 0;
  const int r = comm_->rank();
  const int p = comm_->size();
  const control_msg req{msg_kind::wave_req, wave, 0, 0};
  if (2 * r + 1 < p) send_control(2 * r + 1, req);
  if (2 * r + 2 < p) send_control(2 * r + 2, req);
}

void tree_termination::on_message(const message& m) {
  // Control-message handling is `term` time even when it arrives through
  // the poll phase's recv loop (the scope nests out of `poll`).
  const obs::phase_scope pscope(obs::phase::term);
  assert(m.tag == tag_);
  const auto cm = m.as<control_msg>();
  switch (cm.kind) {
    case msg_kind::wave_req:
      // Parent started a new wave.  The wave number is the sequence
      // number: a replayed or delayed request for a wave we already
      // began (or finished) must not reset the collection state — that
      // would discard child reports and deadlock the wave.
      if (cm.wave > current_wave_) begin_wave(cm.wave);
      break;
    case msg_kind::wave_report: {
      // A child's aggregate.  Idempotent per (child, wave): a replayed
      // report would double-count the subtree's sent/recv totals and a
      // stale one belongs to an already-finalized wave; both drop.
      if (cm.wave != current_wave_) break;
      const int child_idx = m.source - (2 * comm_->rank() + 1);
      if (child_idx < 0 || child_idx > 1 || child_reported_[child_idx]) break;
      child_reported_[child_idx] = true;
      ++child_reports_;
      child_sent_sum_ += cm.sent;
      child_recv_sum_ += cm.recv;
      break;
    }
    case msg_kind::done:
      // Flood down exactly once; replays must not re-flood the subtree.
      if (!finished_) {
        finished_ = true;
        obs::trace_instant("term.done", "term");
        obs::flight_record(obs::flight_kind::term_done, current_wave_);
        flood_done();
      }
      break;
  }
}

void tree_termination::try_report(std::uint64_t local_sent,
                                  std::uint64_t local_recv,
                                  bool locally_idle) {
  if (current_wave_ == 0 || reported_wave_ >= current_wave_) return;
  if (!locally_idle) return;
  if (child_reports_ < num_children()) return;

  const std::uint64_t sent = local_sent + child_sent_sum_;
  const std::uint64_t recv = local_recv + child_recv_sum_;
  reported_wave_ = current_wave_;
  ++completed_waves_;
  obs::flight_record(obs::flight_kind::term_report, sent, recv);
  // Waves are frequent while a traversal is active (the root re-arms
  // immediately), so skip even the registry lookup when metrics are off.
  if (obs::metrics_on()) {
    obs::metrics_registry::instance().get_counter("term.waves").add_raw(1);
  }
  if (wave_start_us_ != 0) {
    const std::uint64_t dur_us = obs::trace_now_us() - wave_start_us_;
    // Per-rank wave span: from this rank learning of the wave to its
    // report going up the tree — the visual of how long quiescence
    // confirmation idled each rank.
    obs::trace_complete("term.wave", "term", wave_start_us_, dur_us, "wave",
                        static_cast<double>(current_wave_));
    if (obs::metrics_on()) {
      obs::metrics_registry::instance()
          .get_histogram("term.wave_us")
          .record_raw(dur_us);
    }
    wave_start_us_ = 0;
  }

  if (comm_->rank() == 0) {
    wave_sent_total_ = sent;
    wave_recv_total_ = recv;
    root_wave_complete_ = true;
  } else {
    send_control(parent(),
                 {msg_kind::wave_report, current_wave_, sent, recv});
  }
}

void tree_termination::finalize_root_wave() {
  if (!root_wave_complete_) return;
  root_wave_complete_ = false;

  const bool balanced = wave_sent_total_ == wave_recv_total_;
  const bool stable = have_prev_totals_ &&
                      prev_sent_total_ == wave_sent_total_ &&
                      prev_recv_total_ == wave_recv_total_;
  if (balanced && stable) {
    finished_ = true;
    obs::trace_instant("term.done", "term");
    obs::flight_record(obs::flight_kind::term_done, current_wave_);
    flood_done();
    return;
  }
  prev_sent_total_ = wave_sent_total_;
  prev_recv_total_ = wave_recv_total_;
  have_prev_totals_ = true;
  begin_wave(current_wave_ + 1);
}

void tree_termination::flood_done() {
  const int r = comm_->rank();
  const int p = comm_->size();
  const control_msg done{msg_kind::done, current_wave_, 0, 0};
  if (2 * r + 1 < p) send_control(2 * r + 1, done);
  if (2 * r + 2 < p) send_control(2 * r + 2, done);
}

bool tree_termination::poll(std::uint64_t local_sent, std::uint64_t local_recv,
                            bool locally_idle) {
  if (finished_) return true;
  const obs::phase_scope pscope(obs::phase::term);
  if (comm_->rank() == 0 && current_wave_ == 0) {
    begin_wave(1);
  }
  try_report(local_sent, local_recv, locally_idle);
  if (comm_->rank() == 0) finalize_root_wave();
  return finished_;
}

}  // namespace sfg::runtime
