/// \file visitor_queue.hpp
/// The distributed asynchronous visitor queue — the paper's Algorithm 1
/// and the driver of every traversal in this library.
///
/// An algorithm is a *visitor* type V (paper Table I):
///   vertex_locator vertex;                    // where to execute
///   bool pre_visit(State&) const;             // cheap gate, runs on the
///                                             //   vertex's (or a ghost's)
///                                             //   state; true = proceed
///   void visit(Graph&, slot, VState&, VQ&);   // main procedure; may push
///   bool operator<(const V&) const;           // local priority (min-heap)
///   static constexpr bool uses_ghosts;        // imprecise filters OK?
///
/// Flow, exactly as Algorithm 1:
///   push():          ghost pre_visit filter (if any) -> mailbox.send to
///                    the vertex's master (min_owner) partition
///   check_mailbox(): pre_visit on the local state; on success queue
///                    locally AND forward down the replica chain
///   global_empty():  Mattern counting quiescence detection over a tree
///   do_traversal():  poll mailbox / run local visitors until quiescent
///
/// Local ordering: min-heap by the visitor's operator<, ties broken by
/// vertex locator — the paper's external-memory locality optimization
/// (§V-A): equal-priority visitors execute in vertex order, maximizing
/// page-level locality of the CSR behind the page cache.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/local_queue.hpp"
#include "core/traversal_observer.hpp"
#include "graph/partitioner.hpp"
#include "mailbox/routed_mailbox.hpp"
#include "obs/phase.hpp"
#include "obs/stats_fields.hpp"
#include "runtime/comm.hpp"
#include "runtime/termination.hpp"
#include "util/rng.hpp"

namespace sfg::core {

struct queue_config {
  mailbox::topology topo = mailbox::topology::direct;
  std::size_t aggregation_bytes = 1 << 13;
  int data_tag = 1;
  int control_tag = 2;
  /// Master toggle for ghost filtering (ANDed with Visitor::uses_ghosts);
  /// lets benches measure ghosts on/off without touching the algorithm.
  bool use_ghosts = true;
  /// Local visitors executed between mailbox polls.
  int batch_size = 64;
  order_tiebreak tiebreak = order_tiebreak::vertex_locality;
  /// Local-queue container (core/local_queue.hpp): `automatic` picks the
  /// bucketed queue for visitors with an integral priority_key() and the
  /// reference heap otherwise; `heap`/`bucket` force one (benches and
  /// equivalence tests).
  queue_impl impl = queue_impl::automatic;
  /// Fault injection for this traversal (runtime/fault.hpp): the stall
  /// knobs make this rank sleep mid-traversal between poll iterations,
  /// deterministically per (faults.seed, rank, iteration).  Transport
  /// faults (delay/reorder/duplicate) are a property of the world the
  /// graph's comm lives in; carrying the same struct here lets the chaos
  /// harness hand one schedule to both layers.  Inert by default.
  runtime::fault_params faults{};
};

template <typename Graph, typename Visitor, typename State>
class visitor_queue {
  static_assert(std::is_trivially_copyable_v<Visitor>,
                "visitors travel as raw bytes");
  // Ownership and replica-chain resolution go exclusively through the
  // partitioned_graph operations (master_rank / next_owner_after /
  // slot_of / ghost lookups).  The queue never assumes contiguous vertex
  // blocks, consecutive owner chains, or any other layout detail — that
  // is what lets every partitioner (edge_list/DBH/HDRF/SNE) and the 1D
  // baseline drive the same traversal code.
  static_assert(graph::partitioned_graph<Graph>,
                "Graph must satisfy the partitioned_graph concept "
                "(graph/partitioner.hpp)");

 public:
  visitor_queue(Graph& g, State& state, queue_config cfg = {})
      : graph_(&g),
        state_(&state),
        cfg_(cfg),
        mailbox_(g.comm(), {cfg.topo, cfg.aggregation_bytes, cfg.data_tag}) {}

  /// Paper Algorithm 1, PUSH: filter through a local ghost if present,
  /// else (or on ghost pass) send toward the master partition.
  void push(const Visitor& v) {
    ++stats_.visitors_pushed;
    if constexpr (Visitor::uses_ghosts) {
      const auto ghost =
          cfg_.use_ghosts ? graph_->ghost_slot_of(v.vertex) : std::nullopt;
      if (ghost) {
        Visitor copy = v;
        if (!copy.pre_visit(state_->ghost(*ghost))) {
          ++stats_.ghost_filtered;
          return;
        }
      }
    }
    ++stats_.visitors_sent;
    mailbox_.send(graph_->master_rank(v.vertex), runtime::as_bytes_of(v));
  }

  /// Paper Algorithm 1, DO_TRAVERSAL: run to global quiescence.
  /// Collective: all ranks must call (after pushing initial visitors).
  void do_traversal() {
    runtime::comm& c = graph_->comm();
    traversal_observer observer(c, mailbox_, observed_);
    runtime::tree_termination term(c, cfg_.control_tag);
    const bool chaos_on = cfg_.faults.enabled() && cfg_.faults.stall_prob > 0;
    util::chaos_stream chaos(cfg_.faults.seed,
                             0x51A11u ^ static_cast<std::uint64_t>(
                                            graph_->rank()));
    auto deliver = [this](int /*origin*/, std::span<const std::byte> bytes) {
      Visitor v;
      std::memcpy(&v, bytes.data(), sizeof(Visitor));
      this->check_mailbox_visitor(v);
    };

    // Phase attribution (obs/phase.hpp): everything inside the poll loop
    // runs under a per-iteration `idle` scope; the specific phases (poll,
    // visit, mbox_*, term, scan, io_wait) nest inside it and subtract
    // their wall time from its self time, so `idle` ends up meaning
    // exactly "spinning without attributable work".
    for (;;) {
      bool done = false;
      {
        const obs::phase_scope iter_scope(obs::phase::idle);
        // Injected rank stall: this rank sleeps mid-traversal while the
        // others keep running — the adversarial scheduling that quiescence
        // detection and replica forwarding must survive.
        if (chaos_on && chaos.decide(cfg_.faults.stall_prob)) {
          observer.stall(chaos.duration_up_to(cfg_.faults.max_stall));
        }
        {
          // Receive: control messages feed the detector, data packets feed
          // the mailbox (which delivers local records and re-forwards
          // in-transit ones).
          const obs::phase_scope poll_scope(obs::phase::poll);
          runtime::message m;
          while (c.try_recv(m)) {
            if (m.tag == cfg_.control_tag) {
              term.on_message(m);
            } else {
              mailbox_.process_packet(m, deliver);
            }
          }
          mailbox_.drain_local(deliver);
          // Age clock for the adaptive flush: one tick per poll iteration,
          // so sparse channels stop sitting on records for idle stretches.
          mailbox_.tick();
        }

        // Execute a bounded batch of local visitors, best-first.  One
        // phase scope per batch (not per visitor) keeps the enabled cost
        // off the per-visitor path; adjacency scans and mailbox packing
        // triggered by visit() nest out into their own phases.
        int executed = 0;
        {
          const obs::phase_scope visit_scope(obs::phase::visit);
          for (; executed < cfg_.batch_size && !local_queue_.empty();
               ++executed) {
            const Visitor v = local_queue_.top();
            local_queue_.pop();
            const auto slot = graph_->slot_of(v.vertex);
            assert(slot.has_value());  // only chain ranks enqueue locally
            ++stats_.visitors_executed;
            v.visit(*graph_, *slot, *state_, *this);
          }
        }
        observer.batch(static_cast<std::uint64_t>(executed),
                       local_queue_.size(), term.waves_completed(),
                       stats_.visitors_executed);

        // Idle only once everything buffered has been pushed out.
        if (local_queue_.empty()) mailbox_.flush();
        const bool idle = local_queue_.empty() && mailbox_.idle() &&
                          c.inbox_empty();
        done = term.poll(mailbox_.stats().records_sent,
                         mailbox_.stats().records_delivered, idle);
      }
      observer.poll();
      if (done) break;
    }
    observer.end(stats_, term.waves_completed());
    // Epoch boundary: without this, a fast rank could start a *new*
    // traversal and its records would land in a slow rank's still-running
    // old loop — consumed against the old queue's counters and lost to
    // the new one, so the new traversal's sent/received totals would
    // never balance (livelock).  Every rank has consumed its DONE (and
    // all data, by the counting invariant) before reaching this barrier,
    // so afterwards all inboxes are empty.
    c.barrier();
  }

  [[nodiscard]] const traversal_stats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const mailbox::routed_mailbox& mail() const noexcept {
    return mailbox_;
  }

  /// Reset the per-traversal counters (mailbox cumulative counters are
  /// left alone: termination detection relies on them being monotonic).
  void reset_stats() {
    obs::stats_reset(stats_);
    obs::stats_reset(observed_.published);
  }

 private:
  /// Paper Algorithm 1, CHECK_MAILBOX body for one arriving visitor:
  /// pre_visit the real state; on success queue locally and forward to
  /// the next replica in the vertex's owner chain.
  void check_mailbox_visitor(Visitor v) {
    ++stats_.visitors_delivered;
    const auto slot = graph_->slot_of(v.vertex);
    // A visitor can only arrive at ranks in the owner chain.
    assert(slot.has_value());
    if (v.pre_visit(state_->local(*slot))) {
      local_queue_.push(v);
      const int next = graph_->next_owner_after(v.vertex, graph_->rank());
      if (next >= 0) {
        ++stats_.visitors_sent;
        mailbox_.send(next, runtime::as_bytes_of(v));
      }
    } else {
      ++stats_.pre_visit_rejected;
    }
  }

  Graph* graph_;
  State* state_;
  queue_config cfg_;
  mailbox::routed_mailbox mailbox_;
  /// Smallest (priority, tie-key) first; container per cfg_.impl — see
  /// core/local_queue.hpp for the bucket/heap split.
  local_queue<Visitor> local_queue_{cfg_.impl, cfg_.tiebreak};
  traversal_stats stats_;
  traversal_observer::history observed_;
};

}  // namespace sfg::core
