/// \file traversal_observer.hpp
/// The one instrumentation path of both traversal drivers, the visitor
/// queue (visitor_queue.hpp, paper Algorithm 1) and the level-synchronous
/// BFS (bfs_hybrid.hpp).  A driver keeps its loop and calls the hooks:
/// construction at traversal begin, batch() or level() per iteration,
/// poll() outside every phase scope, end() after quiescence.  The
/// observer owns the rest: the `traversal` trace span, wall clock and
/// phase delta, flight/span markers, RSS baseline, live
/// `traversal.rankN.*` gauges, time-series and memory-pressure polls,
/// the delta registry publish, and the collective sfg-metrics/1 entry.
/// The per-iteration hooks are inline: the same gates, loads and branches
/// the loops ran when each carried its own copy.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mailbox/routed_mailbox.hpp"
#include "obs/critpath.hpp"
#include "obs/flight.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/run_report.hpp"
#include "obs/span.hpp"
#include "obs/stats_fields.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/fault.hpp"
#include "util/chaos.hpp"

namespace sfg::core {

struct traversal_stats {
  std::uint64_t visitors_pushed = 0;     ///< push() calls
  std::uint64_t visitors_sent = 0;       ///< records handed to the mailbox
  std::uint64_t visitors_delivered = 0;  ///< records received + pre_visited
  std::uint64_t visitors_executed = 0;   ///< visit() calls
  std::uint64_t ghost_filtered = 0;      ///< pushes suppressed by a ghost
  std::uint64_t pre_visit_rejected = 0;  ///< deliveries gated out
  std::uint32_t termination_waves = 0;
  /// Mailbox-level view: the mailbox's own stats struct embedded whole,
  /// instead of hand-copied fields.  Each traversal's end adds its delta,
  /// so like the other fields it accumulates over a reused queue's
  /// traversals until reset_stats().
  mailbox::routed_mailbox::mailbox_stats mailbox{};
  /// Phase-attributed self time of this rank's poll loop (obs/phase.hpp):
  /// where the traversal's wall clock actually went.  Folded from the
  /// thread-local phase slots at traversal end; empty unless metrics,
  /// time-series sampling or spans were on.
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

class traversal_observer {
 public:
  /// What a driver keeps between its traversals.
  struct history {
    /// Last stats folded into the registry; a publish adds only the delta
    /// since, so counters stay exact when one driver runs several
    /// traversals (and seed pushes made between traversals count).
    traversal_stats published{};
    std::uint64_t ordinal = 0;  ///< numbers the begin/end marker pairs
  };

  /// Begin hook.  `mail` is the driver's mailbox: its counters feed the
  /// gauges, the traversal's mailbox delta and the comm-matrix section.
  traversal_observer(runtime::comm& c, const mailbox::routed_mailbox& mail,
                     history& h)
      : span_("traversal", "core"),
        comm_(&c),
        mail_(&mail),
        history_(&h),
        wall_start_(std::chrono::steady_clock::now()),
        mail_start_(mail.stats()),
        // Phase attribution (obs/phase.hpp): the drivers' loops run under
        // phase scopes; the delta from here to end() is this traversal's.
        phase_start_(obs::phase_snapshot()) {
    ++h.ordinal;
    const auto nranks = static_cast<std::uint64_t>(c.size());
    obs::flight_record(obs::flight_kind::traversal_begin, h.ordinal, nranks);
    // Critical-path window marker (obs/span.hpp): the analyzer bounds its
    // walk by the last begin/end pair in each rank's ring.
    obs::span_mark(obs::span_kind::trav_begin, h.ordinal, nranks);
    // Pin the RSS baseline before any traversal allocation (lazy EM frame
    // fills, queue growth, mailbox arenas): the first sample ever becomes
    // the baseline, so coverage measures accounted bytes against what the
    // traversals actually grew, not against the binary + graph load.
    if (obs::mem_on()) (void)obs::mem_sample_rss();
    // Live straggler gauges, resolved once per traversal (registry lookup
    // takes a mutex); the time-series sampler reads them too.
    if (obs::metrics_on()) {
      auto& reg = obs::metrics_registry::instance();
      const std::string prefix = "traversal.rank" + std::to_string(c.rank());
      depth_gauge_ = &reg.get_gauge(prefix + ".queue_depth");
      inflight_gauge_ = &reg.get_gauge(prefix + ".inflight_records");
      epoch_gauge_ = &reg.get_gauge(prefix + ".term_epoch");
      executed_gauge_ = &reg.get_gauge(prefix + ".visitors_executed");
    }
  }

  /// Visitor-queue iteration: `executed` visitors ran in this batch and
  /// `depth` remain queued; `epoch` termination waves have completed and
  /// `executed_total` visitors have run on this rank so far.
  void batch(std::uint64_t executed, std::uint64_t depth, std::uint64_t epoch,
             std::uint64_t executed_total) noexcept {
    if (executed > 0) {
      obs::flight_record(obs::flight_kind::queue_batch, executed, depth);
    }
    progress(depth, epoch, executed_total);
  }

  /// Level-synchronous level start: the global frontier holds `frontier`
  /// vertices, `depth` of them on this rank; `epoch` quiescence rounds
  /// have completed and `executed_total` claims were accepted so far.
  void level(std::uint64_t level, std::uint64_t frontier, bool bottom_up,
             std::uint64_t depth, std::uint64_t epoch,
             std::uint64_t executed_total) noexcept {
    obs::flight_record(obs::flight_kind::queue_batch, level, frontier);
    // Stamped after the level barrier, so its timestamp is this rank's
    // barrier exit (what the critical-path analyzer needs).
    obs::span_mark(obs::span_kind::bfs_level, level,
                   static_cast<std::uint64_t>(bottom_up));
    progress(depth, epoch, executed_total);
  }

  /// Injected rank stall (queue_config::faults): with probability
  /// `f.stall_prob` per call this rank sleeps mid-traversal, and the fault
  /// lands in the black box first.
  static void stall(const runtime::fault_params& f, util::chaos_stream& chaos) {
    if (f.stall_prob <= 0 || !chaos.decide(f.stall_prob)) return;
    const std::chrono::nanoseconds d = chaos.duration_up_to(f.max_stall);
    obs::flight_record(
        obs::flight_kind::fault_stall,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(d).count()));
    std::this_thread::sleep_for(d);
  }

  /// Once per iteration, outside every phase scope: the sampler reads
  /// closed-scope self times, and pressure callbacks (page-cache shrink
  /// etc.) must run with no subsystem locks held.  Disarmed: two loads.
  static void poll() {
    obs::ts_poll();
    obs::mem_pressure_poll();
  }

  /// End hook: fold this traversal's waves, mailbox delta and phase delta
  /// into the driver's cumulative `stats` (never overwrite: the delta
  /// publish relies on monotonic fields), publish, and — collectively,
  /// when a metrics report path is set — append the report entry, with
  /// one extra section `key` that `section()` builds on rank 0 if given.
  void end(traversal_stats& stats, std::uint32_t waves) {
    end(stats, waves, nullptr, [] { return obs::json(); });
  }
  template <typename Section>
  void end(traversal_stats& stats, std::uint32_t waves, const char* key,
           Section&& section) {
    stats.termination_waves += waves;
    obs::stats_add(stats.mailbox, obs::stats_delta(mail_->stats(), mail_start_));
    obs::stats_add(stats.phase,
                   obs::stats_delta(obs::phase_snapshot(), phase_start_));
    wall_us_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wall_start_)
            .count());
    obs::flight_record(obs::flight_kind::traversal_end,
                       stats.visitors_executed, wall_us_);
    obs::span_mark(obs::span_kind::trav_end, history_->ordinal,
                   static_cast<std::uint64_t>(comm_->size()));
    span_.set_arg("executed", static_cast<double>(stats.visitors_executed));
    // Registry fold; the time-series "totals" come from these counters.
    if (obs::metrics_on()) {
      obs::stats_to_registry("traversal",
                             obs::stats_delta(stats, history_->published));
      history_->published = stats;
      // Every rank contributes its wall time, so the histogram's spread
      // *is* the traversal's imbalance at a glance.
      obs::metrics_registry::instance()
          .get_histogram("traversal.rank_time_us")
          .record_raw(wall_us_);
      // Ledger gauges are levels, so re-publishing is idempotent.
      obs::mem_publish_registry();
    }
    // Force a final time-series sample so a traversal shorter than
    // SFG_TS_INTERVAL_MS still leaves at least one line per rank.
    obs::ts_flush();
    report(stats, key, section);
  }

 private:
  /// Straggler inputs one rank contributes to the report.
  struct rank_timing {
    std::uint64_t wall_us;
    std::uint64_t max_queue_depth;
  };

  void progress(std::uint64_t depth, std::uint64_t epoch,
                std::uint64_t executed_total) noexcept {
    max_depth_ = std::max(max_depth_, depth);
    if (depth_gauge_ == nullptr) return;
    const auto& ms = mail_->stats();
    depth_gauge_->set_raw(static_cast<double>(depth));
    // Signed: a net-receiver rank delivers more than it sends, so the
    // locally-known balance can legitimately go negative.
    inflight_gauge_->set_raw(static_cast<double>(
        static_cast<std::int64_t>(ms.records_sent) -
        static_cast<std::int64_t>(ms.records_delivered)));
    epoch_gauge_->set_raw(static_cast<double>(epoch));
    executed_gauge_->set_raw(static_cast<double>(executed_total));
  }

  /// If a metrics report path is configured (SFG_METRICS or
  /// set_metrics_report_path), gather every rank's stats and have rank 0
  /// append one entry to the report.  Collective: rank 0 decides, so all
  /// ranks agree even if the path is toggled concurrently; the section
  /// gates are process-wide (ranks are threads), so all ranks agree on
  /// entering each gather too.
  template <typename Section>
  void report(const traversal_stats& stats, const char* key,
              Section& section) {
    runtime::comm& c = *comm_;
    const int want = c.broadcast(
        static_cast<int>(c.rank() == 0 &&
                         !obs::metrics_report_path().empty()),
        0);
    if (want == 0) return;
    const std::vector<traversal_stats> all = c.all_gather(stats);
    const std::vector<rank_timing> timing =
        c.all_gather(rank_timing{wall_us_, max_depth_});
    // Rank x rank traffic matrix (sfg-comm-matrix/1).
    const bool want_matrix = obs::metrics_on();
    obs::json matrix_rows;
    if (want_matrix) matrix_rows = obs::gather_json(c, mail_->matrix_json());
    // Critical path (sfg-critpath/1): rank 0 analyzes every rank's ring.
    const bool want_critpath = obs::spans_on();
    obs::json span_fragments;
    if (want_critpath) span_fragments = obs::gather_json(c, obs::span_rank_json());
    // Memory attribution (sfg-mem/1): every rank ships its ledger
    // fragment; rank 0 folds in the process ground truth (RSS, pressure).
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
    entry["straggler"] = straggler_summary(timing, all);
    if (key != nullptr) entry[key] = section();
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
  static obs::json straggler_summary(const std::vector<rank_timing>& timing,
                                     const std::vector<traversal_stats>& all) {
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
    attribution["executed"] = all[slowest].visitors_executed;
    s["slowest"] = std::move(attribution);
    obs::json per_rank = obs::json::array();
    for (const std::uint64_t w : walls) per_rank.push_back(w);
    s["per_rank_wall_us"] = std::move(per_rank);
    return s;
  }

  obs::trace_span span_;
  runtime::comm* comm_;
  const mailbox::routed_mailbox* mail_;
  history* history_;
  std::chrono::steady_clock::time_point wall_start_;
  mailbox::routed_mailbox::mailbox_stats mail_start_;
  obs::phase_stats phase_start_;
  std::uint64_t wall_us_ = 0;
  std::uint64_t max_depth_ = 0;
  obs::gauge* depth_gauge_ = nullptr;
  obs::gauge* inflight_gauge_ = nullptr;
  obs::gauge* epoch_gauge_ = nullptr;
  obs::gauge* executed_gauge_ = nullptr;
};

}  // namespace sfg::core
