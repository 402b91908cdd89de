#include "term_detectors.hpp"

#include <atomic>
#include <cassert>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace sfg::runtime {

// ---------------------------------------------------------------------------
// safra_termination
// ---------------------------------------------------------------------------

safra_termination::safra_termination(comm& c, int control_tag)
    : comm_(&c), tag_(control_tag) {
  // Rank 0 initiates: it "has" a fresh white token from the start.
  if (c.rank() == 0) have_token_ = true;
  if (c.size() == 1) {
    // Degenerate ring: poll() decides locally.
  }
}

void safra_termination::on_message(const message& m) {
  const obs::phase_scope pscope(obs::phase::term);
  assert(m.tag == tag_);
  if (m.payload.size() != sizeof(token_msg)) {
    // Not a token: decoding it would read past a short payload, and a
    // stray kind byte could announce DONE.  Drop it as the tree detector
    // does.
    obs::flight_record(obs::flight_kind::term_reject,
                       static_cast<std::uint64_t>(m.source), m.payload.size());
    return;
  }
  const auto tm = m.as<token_msg>();
  if (tm.kind == msg_kind::done) {
    // Forward the announcement once around the ring; a transport replay
    // of DONE must not be re-forwarded (it would amplify forever).
    if (!finished_) {
      finished_ = true;
      if (comm_->rank() + 1 < comm_->size()) {
        comm_->send_value(comm_->rank() + 1, tag_, tm);
      }
    }
    return;
  }
  // The round number is the token's sequence number: rounds only move
  // forward, so a token for a round we already accepted (and possibly
  // forwarded) is a duplicate — accepting it would put two copies of one
  // token in circulation and corrupt the global deficit.
  if (tm.round <= last_token_round_) return;
  last_token_round_ = tm.round;
  token_ = tm;
  have_token_ = true;
}

void safra_termination::forward_token(std::uint64_t local_sent,
                                      std::uint64_t local_recv) {
  const int p = comm_->size();
  token_msg out = token_;
  out.deficit += static_cast<std::int64_t>(local_sent) -
                 static_cast<std::int64_t>(local_recv);
  if (my_color_ == color::black) out.col = color::black;
  // Safra rule: a machine whitens itself after forwarding the token.
  my_color_ = color::white;
  have_token_ = false;

  if (comm_->rank() == p - 1) {
    // Back to the initiator.
    comm_->send_value(0, tag_, out);
  } else {
    comm_->send_value(comm_->rank() + 1, tag_, out);
  }
}

bool safra_termination::poll(std::uint64_t local_sent,
                             std::uint64_t local_recv, bool locally_idle) {
  if (finished_) return true;
  const obs::phase_scope pscope(obs::phase::term);

  // Receiving any work since the last poll taints this rank black
  // (Safra: "on receipt of a basic message, machine becomes black").
  if (local_recv != last_seen_recv_) {
    my_color_ = color::black;
    last_seen_recv_ = local_recv;
  }
  if (!locally_idle || !have_token_) return false;

  if (comm_->size() == 1) {
    // Single rank: idle with balanced counters is termination.
    if (local_sent == local_recv) {
      finished_ = true;
      ++rounds_;
    }
    return finished_;
  }

  if (comm_->rank() == 0) {
    // Initiator.  A token in hand is either the pre-round pseudo-token
    // (nothing to evaluate yet) or one that completed a full loop.
    if (!initial_token_) {
      ++rounds_;
      if (obs::metrics_on()) {
        obs::metrics_registry::instance()
            .get_counter("term.safra_rounds")
            .add_raw(1);
      }
      obs::trace_instant("term.safra_round", "term", "round",
                         static_cast<double>(rounds_));
      const std::int64_t total =
          token_.deficit + static_cast<std::int64_t>(local_sent) -
          static_cast<std::int64_t>(local_recv);
      if (token_.col == color::white && my_color_ == color::white &&
          total == 0) {
        finished_ = true;
        comm_->send_value(1, tag_,
                          token_msg{msg_kind::done, color::white, 0, 0});
        return true;
      }
    }
    // Start the next round: whiten, send a fresh white token with zero
    // accumulated deficit (our own is added at evaluation time).
    initial_token_ = false;
    my_color_ = color::white;
    have_token_ = false;
    ++emitted_round_;
    comm_->send_value(
        1, tag_, token_msg{msg_kind::token, color::white, emitted_round_, 0});
    return false;
  }

  forward_token(local_sent, local_recv);
  return false;
}

// ---------------------------------------------------------------------------
// shared_term_oracle
// ---------------------------------------------------------------------------

struct shared_term_oracle::shared_state {
  explicit shared_state(int p)
      : sent(static_cast<std::size_t>(p)),
        recv(static_cast<std::size_t>(p)),
        idle(static_cast<std::size_t>(p)) {
    for (std::size_t i = 0; i < sent.size(); ++i) {
      sent[i].store(0, std::memory_order_relaxed);
      recv[i].store(0, std::memory_order_relaxed);
      idle[i].store(0, std::memory_order_relaxed);
    }
  }
  std::vector<std::atomic<std::uint64_t>> sent;
  std::vector<std::atomic<std::uint64_t>> recv;
  std::vector<std::atomic<int>> idle;
};

shared_term_oracle::shared_term_oracle(comm& c) : comm_(&c) {
  if (c.rank() == 0) state_ = std::make_shared<shared_state>(c.size());
  // Hand every rank a copy of root's shared_ptr.  The trailing barrier
  // keeps root's object alive until every rank holds a reference.
  auto* root_sp = c.broadcast(&state_, 0);
  if (c.rank() != 0) state_ = *root_sp;
  c.barrier();
}

bool shared_term_oracle::poll(std::uint64_t local_sent,
                              std::uint64_t local_recv, bool locally_idle) {
  if (finished_) return true;
  const auto r = static_cast<std::size_t>(comm_->rank());
  state_->sent[r].store(local_sent, std::memory_order_seq_cst);
  state_->recv[r].store(local_recv, std::memory_order_seq_cst);
  state_->idle[r].store(locally_idle ? 1 : 0, std::memory_order_seq_cst);
  if (!locally_idle) {
    candidate_ = false;
    return false;
  }

  std::uint64_t s = 0;
  std::uint64_t v = 0;
  bool all_idle = true;
  for (std::size_t i = 0; i < state_->sent.size(); ++i) {
    s += state_->sent[i].load(std::memory_order_seq_cst);
    v += state_->recv[i].load(std::memory_order_seq_cst);
    all_idle = all_idle && state_->idle[i].load(std::memory_order_seq_cst) == 1;
  }
  if (!all_idle || s != v) {
    candidate_ = false;
    return false;
  }
  if (candidate_ && candidate_sent_ == s && candidate_recv_ == v) {
    finished_ = true;
    return true;
  }
  candidate_ = true;
  candidate_sent_ = s;
  candidate_recv_ = v;
  return false;
}

}  // namespace sfg::runtime
