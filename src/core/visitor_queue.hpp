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

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/local_queue.hpp"
#include "graph/partitioner.hpp"
#include "mailbox/routed_mailbox.hpp"
#include "obs/critpath.hpp"
#include "obs/flight.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/run_report.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/stats_fields.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
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

struct traversal_stats {
  std::uint64_t visitors_pushed = 0;     ///< push() calls
  std::uint64_t visitors_sent = 0;       ///< records handed to the mailbox
  std::uint64_t visitors_delivered = 0;  ///< records received + pre_visited
  std::uint64_t visitors_executed = 0;   ///< visit() calls
  std::uint64_t ghost_filtered = 0;      ///< pushes suppressed by a ghost
  std::uint64_t pre_visit_rejected = 0;  ///< deliveries gated out
  std::uint32_t termination_waves = 0;
  /// Mailbox-level view of this traversal: the mailbox's own stats struct
  /// embedded whole (delta over the traversal, so reused queues report
  /// per-traversal numbers), instead of hand-copied fields.
  mailbox::routed_mailbox::mailbox_stats mailbox{};
  /// Phase-attributed self time of this rank's poll loop (obs/phase.hpp):
  /// where the traversal's wall clock actually went.  Folded from the
  /// thread-local phase slots at do_traversal exit; empty unless metrics
  /// or time-series sampling were on.
  obs::phase_stats phase{};
};

}  // namespace sfg::core

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.  The embedded
/// mailbox snapshot recurses through its own traits.
template <>
struct sfg::obs::stats_traits<sfg::core::traversal_stats> {
  using S = sfg::core::traversal_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"visitors_pushed", &S::visitors_pushed},
      stats_field{"visitors_sent", &S::visitors_sent},
      stats_field{"visitors_delivered", &S::visitors_delivered},
      stats_field{"visitors_executed", &S::visitors_executed},
      stats_field{"ghost_filtered", &S::ghost_filtered},
      stats_field{"pre_visit_rejected", &S::pre_visit_rejected},
      stats_field{"termination_waves", &S::termination_waves},
      stats_field{"mailbox", &S::mailbox},
      stats_field{"phase", &S::phase});
};

namespace sfg::core {

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
  ///
  /// Causal sampling (trace_context.hpp): 1-in-SFG_TRACE_SAMPLE pushes get
  /// a trace_ctx that rides with the visitor's record through every
  /// mailbox hop and replica forward; the flow opens here ('s') and closes
  /// ('f') at exactly one downstream terminal — ghost suppression here,
  /// pre_visit rejection, or acceptance at the end of the owner chain — so
  /// Chrome/Perfetto draws the full cross-rank chain as one arrow path.
  void push(const Visitor& v) {
    ++stats_.visitors_pushed;
    const obs::trace_ctx ctx =
        obs::sample_trace_ctx(graph_->rank(), v.vertex.bits());
    if (ctx != 0) {
      obs::trace_flow_begin("visitor.push", obs::ctx_flow_id(ctx),
                            "visitor_flow", "dest",
                            static_cast<double>(graph_->master_rank(v.vertex)));
    }
    if constexpr (Visitor::uses_ghosts) {
      const auto ghost =
          cfg_.use_ghosts ? graph_->ghost_slot_of(v.vertex) : std::nullopt;
      if (ghost) {
        Visitor copy = v;
        if (!copy.pre_visit(state_->ghost(*ghost))) {
          ++stats_.ghost_filtered;
          if (ctx != 0) {
            obs::trace_flow_end("visitor.ghost_filtered", obs::ctx_flow_id(ctx));
          }
          return;
        }
      }
    }
    ++stats_.visitors_sent;
    mailbox_.send(graph_->master_rank(v.vertex), runtime::as_bytes_of(v), ctx);
  }

  /// Paper Algorithm 1, DO_TRAVERSAL: run to global quiescence.
  /// Collective: all ranks must call (after pushing initial visitors).
  void do_traversal() {
    obs::trace_span tspan("traversal", "core");
    const auto wall_start = std::chrono::steady_clock::now();
    const mailbox::routed_mailbox::mailbox_stats mail_start = mailbox_.stats();
    // Phase attribution (obs/phase.hpp): everything inside the poll loop
    // runs under a per-iteration `idle` scope; the specific phases (poll,
    // visit, mbox_*, term, scan, io_wait) nest inside it and subtract
    // their wall time from its self time, so `idle` ends up meaning
    // exactly "spinning without attributable work".
    const obs::phase_stats phase_start = obs::phase_snapshot();
    runtime::tree_termination term(graph_->comm(), cfg_.control_tag);
    const bool chaos_on = cfg_.faults.enabled() && cfg_.faults.stall_prob > 0;
    util::chaos_stream chaos(cfg_.faults.seed,
                             0x51A11u ^ static_cast<std::uint64_t>(
                                            graph_->rank()));
    // Ctx-aware delivery: the third parameter is the sampled causal
    // context carried by the record (0 for the unsampled majority).
    auto deliver = [this](int /*origin*/, std::span<const std::byte> bytes,
                          obs::trace_ctx ctx) {
      Visitor v;
      std::memcpy(&v, bytes.data(), sizeof(Visitor));
      this->check_mailbox_visitor(v, ctx);
    };

    runtime::comm& c = graph_->comm();
    obs::flight_record(obs::flight_kind::traversal_begin, ++traversal_ordinal_,
                       static_cast<std::uint64_t>(c.size()));
    // Critical-path window marker (obs/span.hpp): the analyzer bounds its
    // walk by the last begin/end pair in each rank's ring.
    obs::span_mark(obs::span_kind::trav_begin, traversal_ordinal_,
                   static_cast<std::uint64_t>(c.size()));
    // Pin the RSS baseline before any traversal allocation (lazy EM frame
    // fills, queue growth, mailbox arenas): the first sample ever becomes
    // the baseline, so coverage measures accounted bytes against what the
    // traversals actually grew, not against the binary + graph load.
    if (obs::mem_on()) (void)obs::mem_sample_rss();
    // Live straggler gauges: this rank's queue depth, locally-known
    // in-flight records and termination epoch, refreshed every poll
    // iteration so the registry always shows who is dragging.  Handles are
    // resolved once per traversal (registry lookup takes a mutex).  The
    // time-series sampler reads these too, so they update (via the ungated
    // set_raw) whenever either consumer is on.
    obs::gauge* depth_gauge = nullptr;
    obs::gauge* inflight_gauge = nullptr;
    obs::gauge* epoch_gauge = nullptr;
    obs::gauge* executed_gauge = nullptr;
    if (obs::metrics_on() || obs::ts_on()) {
      auto& reg = obs::metrics_registry::instance();
      const std::string prefix =
          "traversal.rank" + std::to_string(graph_->rank());
      depth_gauge = &reg.get_gauge(prefix + ".queue_depth");
      inflight_gauge = &reg.get_gauge(prefix + ".inflight_records");
      epoch_gauge = &reg.get_gauge(prefix + ".term_epoch");
      executed_gauge = &reg.get_gauge(prefix + ".visitors_executed");
    }
    std::uint64_t max_depth = 0;
    for (;;) {
      bool done = false;
      {
        const obs::phase_scope iter_scope(obs::phase::idle);
        // Injected rank stall: this rank sleeps mid-traversal while the
        // others keep running — the adversarial scheduling that quiescence
        // detection and replica forwarding must survive.
        if (chaos_on && chaos.decide(cfg_.faults.stall_prob)) {
          const auto stall = chaos.duration_up_to(cfg_.faults.max_stall);
          obs::flight_record(
              obs::flight_kind::fault_stall,
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(stall)
                      .count()));
          std::this_thread::sleep_for(stall);
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
        const std::uint64_t depth = local_queue_.size();
        max_depth = std::max(max_depth, depth);
        if (executed > 0) {
          obs::flight_record(obs::flight_kind::queue_batch,
                             static_cast<std::uint64_t>(executed), depth);
        }
        if (depth_gauge != nullptr) {
          const auto& ms = mailbox_.stats();
          depth_gauge->set_raw(static_cast<double>(depth));
          // Signed: a net-receiver rank delivers more than it sends, so
          // the locally-known balance can legitimately go negative.
          inflight_gauge->set_raw(static_cast<double>(
              static_cast<std::int64_t>(ms.records_sent) -
              static_cast<std::int64_t>(ms.records_delivered)));
          epoch_gauge->set_raw(static_cast<double>(term.waves_completed()));
          executed_gauge->set_raw(
              static_cast<double>(stats_.visitors_executed));
        }

        // Idle only once everything buffered has been pushed out.
        if (local_queue_.empty()) mailbox_.flush();
        const bool idle = local_queue_.empty() && mailbox_.idle() &&
                          c.inbox_empty();
        done = term.poll(mailbox_.stats().records_sent,
                         mailbox_.stats().records_delivered, idle);
      }
      // Outside the phase scopes: the sampler reads closed-scope self
      // times, so sampling here sees this iteration fully attributed.
      obs::ts_poll();
      // Pressure callbacks (page-cache shrink etc.) dispatch here, with no
      // subsystem locks held — never from the charge that crossed the
      // threshold.  Disarmed: one relaxed load.
      obs::mem_pressure_poll();
      if (done) break;
    }
    // Accumulate (never overwrite): every stats_ field stays monotonic
    // across traversals, which publish_metrics' delta logic relies on.
    stats_.termination_waves += term.waves_completed();
    obs::stats_add(stats_.mailbox,
                   obs::stats_delta(mailbox_.stats(), mail_start));
    obs::stats_add(stats_.phase,
                   obs::stats_delta(obs::phase_snapshot(), phase_start));
    last_wall_us_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
    last_max_depth_ = max_depth;
    obs::flight_record(obs::flight_kind::traversal_end,
                       stats_.visitors_executed, last_wall_us_);
    obs::span_mark(obs::span_kind::trav_end, traversal_ordinal_,
                   static_cast<std::uint64_t>(c.size()));
    tspan.set_arg("executed", static_cast<double>(stats_.visitors_executed));
    publish_metrics();
    // Force a final time-series sample so a traversal shorter than
    // SFG_TS_INTERVAL_MS still leaves at least one line per rank.
    obs::ts_flush();
    maybe_write_run_report(c);
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
    obs::stats_reset(published_);
  }

 private:
  /// Fold this traversal's activity into the process-wide registry.  Only
  /// the delta since the last publish is added, so counters stay exact
  /// when one queue runs several traversals.
  void publish_metrics() {
    // Runs for the sampler too: the time-series "totals" come from these
    // registry counters, so a TS-only run still needs the fold.
    if (!obs::metrics_on() && !obs::ts_on()) return;
    obs::stats_to_registry("traversal", obs::stats_delta(stats_, published_));
    published_ = stats_;
    // Every rank contributes its wall time, so the registry histogram's
    // p50/p90/p99 spread *is* the traversal's imbalance at a glance.
    obs::metrics_registry::instance()
        .get_histogram("traversal.rank_time_us")
        .record_raw(last_wall_us_);
    // Memory ledger gauges ride the same publish cadence (levels, not
    // deltas, so re-publishing is idempotent).
    obs::mem_publish_registry();
  }

  /// If a metrics report path is configured (SFG_METRICS or
  /// set_metrics_report_path), gather every rank's traversal_stats and
  /// have rank 0 append one entry to the report.  Collective: rank 0
  /// decides, so all ranks agree even if the path is toggled concurrently.
  void maybe_write_run_report(runtime::comm& c) {
    const int want = c.broadcast(
        static_cast<int>(c.rank() == 0 &&
                         !obs::metrics_report_path().empty()),
        0);
    if (want == 0) return;
    const std::vector<traversal_stats> all = c.all_gather(stats_);
    // Straggler fold: each rank contributes its wall time / peak queue
    // depth / wave count through the same collective path (all ranks must
    // reach this all_gather before rank 0's early return below).
    struct rank_timing {
      std::uint64_t wall_us;
      std::uint64_t max_queue_depth;
      std::uint64_t executed;
    };
    const std::vector<rank_timing> timing = c.all_gather(
        rank_timing{last_wall_us_, last_max_depth_, stats_.visitors_executed});
    // Rank x rank traffic-matrix section (sfg-comm-matrix/1): each rank
    // ships its mailbox matrix fragment through the same collective path.
    // The gate is process-wide (ranks are threads), so all ranks agree on
    // whether to enter the collective.
    const bool want_matrix = obs::comm_matrix_on();
    obs::json matrix_rows;
    if (want_matrix) matrix_rows = obs::gather_json(c, mailbox_.matrix_json());
    // Critical-path section (sfg-critpath/1): gather every rank's span
    // ring and let rank 0 run the analyzer.  Same process-wide-gate
    // argument as the matrix: all ranks agree on entering the collective.
    const bool want_critpath = obs::spans_on();
    obs::json span_fragments;
    if (want_critpath) span_fragments = obs::gather_json(c, obs::span_rank_json());
    // Memory-attribution section (sfg-mem/1): every rank ships its ledger
    // fragment; rank 0 folds in the process ground truth (RSS, pressure).
    // Same process-wide-gate argument as the matrix.
    const bool want_mem = obs::mem_on();
    obs::json mem_rows;
    if (want_mem) mem_rows = obs::gather_json(c, obs::mem_rank_json(c.rank()));
    if (c.rank() != 0) return;
    obs::json entry = obs::json::object();
    entry["ranks"] = static_cast<std::uint64_t>(all.size());
    traversal_stats total{};
    obs::json per_rank = obs::json::array();
    for (const auto& s : all) {
      obs::stats_add(total, s);
      per_rank.push_back(obs::stats_to_json(s));
    }
    entry["total"] = obs::stats_to_json(total);
    entry["per_rank"] = std::move(per_rank);
    entry["straggler"] = straggler_summary(timing);
    if (want_matrix) {
      obs::json cm = obs::json::object();
      cm["schema"] = "sfg-comm-matrix/1";
      cm["ranks"] = static_cast<std::uint64_t>(all.size());
      cm["rows"] = std::move(matrix_rows);
      entry["comm_matrix"] = std::move(cm);
    }
    if (want_critpath) {
      obs::json cp = obs::critpath_analyze(span_fragments);
      if (!cp.is_null()) entry["critpath"] = std::move(cp);
    }
    if (want_mem) entry["mem"] = obs::mem_section_json(std::move(mem_rows));
    obs::append_traversal_report(std::move(entry));
  }

  /// Per-traversal imbalance summary (DESIGN.md §9): max/median/min rank
  /// wall time, the imbalance ratio, and which rank was slowest with
  /// enough attribution (work executed, peak queue depth) to say why.
  template <typename Timing>
  static obs::json straggler_summary(const std::vector<Timing>& timing) {
    std::vector<std::uint64_t> walls;
    walls.reserve(timing.size());
    for (const auto& t : timing) walls.push_back(t.wall_us);
    std::vector<std::uint64_t> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    const std::uint64_t max_us = sorted.back();
    const std::uint64_t min_us = sorted.front();
    const std::uint64_t median_us = sorted[sorted.size() / 2];
    const std::size_t slowest = static_cast<std::size_t>(
        std::max_element(walls.begin(), walls.end()) - walls.begin());
    obs::json s = obs::json::object();
    s["max_rank_us"] = max_us;
    s["median_rank_us"] = median_us;
    s["min_rank_us"] = min_us;
    s["imbalance"] = median_us == 0
                         ? 1.0
                         : static_cast<double>(max_us) /
                               static_cast<double>(median_us);
    s["slowest_rank"] = static_cast<std::uint64_t>(slowest);
    obs::json attribution = obs::json::object();
    attribution["wall_us"] = timing[slowest].wall_us;
    attribution["max_queue_depth"] = timing[slowest].max_queue_depth;
    attribution["executed"] = timing[slowest].executed;
    s["slowest"] = std::move(attribution);
    obs::json per_rank = obs::json::array();
    for (const std::uint64_t w : walls) per_rank.push_back(w);
    s["per_rank_wall_us"] = std::move(per_rank);
    return s;
  }

  /// Paper Algorithm 1, CHECK_MAILBOX body for one arriving visitor:
  /// pre_visit the real state; on success queue locally and forward to
  /// the next replica in the vertex's owner chain.
  ///
  /// Flow bookkeeping for a sampled visitor (ctx != 0): the record chain
  /// ends here with exactly one 'f' — pre_visit rejection, or acceptance
  /// at the last rank of the owner chain.  An acceptance that forwards
  /// emits a 't' and passes the (hop-bumped) ctx to the forwarded record,
  /// keeping the chain linear: every sampled push terminates exactly once.
  void check_mailbox_visitor(Visitor v, obs::trace_ctx ctx = 0) {
    ++stats_.visitors_delivered;
    const auto slot = graph_->slot_of(v.vertex);
    // A visitor can only arrive at ranks in the owner chain.
    assert(slot.has_value());
    if (v.pre_visit(state_->local(*slot))) {
      local_queue_.push(v);
      const int next = graph_->next_owner_after(v.vertex, graph_->rank());
      if (next >= 0) {
        ++stats_.visitors_sent;
        if (ctx != 0) {
          ctx = obs::ctx_bump_hop(ctx);
          obs::trace_flow_step("visitor.pre_visit", obs::ctx_flow_id(ctx),
                               "visitor_flow", "next",
                               static_cast<double>(next));
        }
        mailbox_.send(next, runtime::as_bytes_of(v), ctx);
      } else if (ctx != 0) {
        obs::trace_flow_end("visitor.queued", obs::ctx_flow_id(ctx),
                            "visitor_flow", "hops",
                            static_cast<double>(obs::ctx_hops(ctx)));
      }
    } else {
      ++stats_.pre_visit_rejected;
      if (ctx != 0) {
        obs::trace_flow_end("visitor.pre_visit_rejected",
                            obs::ctx_flow_id(ctx));
      }
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
  /// What publish_metrics() last folded into the registry.
  traversal_stats published_;
  /// Straggler inputs from the most recent do_traversal (fed to the run
  /// report's collective fold and the registry rank-time histogram).
  std::uint64_t last_wall_us_ = 0;
  std::uint64_t last_max_depth_ = 0;
  std::uint64_t traversal_ordinal_ = 0;
};

}  // namespace sfg::core
