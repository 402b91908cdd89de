/// \file bfs_hybrid.hpp
/// Direction-optimizing level-synchronous BFS (DESIGN.md §13).
///
/// The paper's asynchronous visitor BFS (core/bfs.hpp) wins on
/// high-diameter external-memory graphs; on low-diameter scale-free
/// inputs most visitors are wasted edge checks.  This driver implements
/// the Beamer / Buluç–Madduri alternative on top of the same partitioned
/// graph: a level-synchronous traversal over an explicit frontier
/// (core/frontier.hpp) that runs each level either
///
///   top-down   — every rank scans the adjacency slices of frontier
///                vertices it holds (master or replica — slices are
///                disjoint, so each edge is expanded exactly once with no
///                replica-chain forwarding) and mails a claim
///                {child, parent} to the child's master;
///   bottom-up  — every rank probes the slices of UNVISITED vertices it
///                holds against the frontier bitmap, stopping at the
///                first frontier neighbor, and mails the claim to the
///                vertex's own master.
///
/// Masters accept the first claim per vertex (level = current + 1), so
/// all modes produce a valid BFS tree; which parent wins is
/// mode-dependent, which is exactly what the cross-mode equivalence
/// matrix (ctest -L bfsmodes) checks levels against.
///
/// Level protocol (the bitmap broadcast, DESIGN.md §13):
///   1. all_gatherv_into of each rank's next-frontier packed words →
///      rank-ordered global frontier bitmap (bit = (owner, local_id));
///   2. one all_reduce carries frontier vertex count, frontier edge
///      mass, and remaining unvisited edge mass — the α/β inputs;
///   3. scan (direction per the heuristic), claims through the routed
///      mailbox — except a claim for a vertex this rank masters, which
///      is applied where it is made and counted as one record sent and
///      delivered;
///   4. counting quiescence: loop [pump, flush, all_reduce(sent,
///      delivered, busy)] until globally sent == delivered and every
///      rank is idle (mailbox drained, inbox empty — delayed/duplicated
///      fault packets included, same predicate as the visitor queue).
///
/// Hybrid switching (Beamer's heuristic, α = kBfsAlpha, β = kBfsBeta):
/// top-down → bottom-up when frontier edge mass m_f > m_u / α;
/// bottom-up → top-down when frontier size n_f < n / β.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/bfs.hpp"
#include "core/frontier.hpp"
#include "core/traversal_observer.hpp"
#include "core/visitor_queue.hpp"
#include "graph/partitioner.hpp"
#include "mailbox/routed_mailbox.hpp"
#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "runtime/comm.hpp"
#include "util/rng.hpp"

namespace sfg::core {

enum class bfs_mode : std::uint8_t { async, topdown, bottomup, hybrid };

inline constexpr bfs_mode kAllBfsModes[] = {
    bfs_mode::async, bfs_mode::topdown, bfs_mode::bottomup, bfs_mode::hybrid};

inline const char* bfs_mode_name(bfs_mode m) noexcept {
  switch (m) {
    case bfs_mode::async:
      return "async";
    case bfs_mode::topdown:
      return "topdown";
    case bfs_mode::bottomup:
      return "bottomup";
    case bfs_mode::hybrid:
      return "hybrid";
  }
  return "?";
}

inline std::optional<bfs_mode> parse_bfs_mode(std::string_view name) {
  for (const bfs_mode m : kAllBfsModes) {
    if (name == bfs_mode_name(m)) return m;
  }
  return std::nullopt;
}

/// Beamer's published α/β, which the bench sweep confirmed are not
/// sensitive at this repo's scales.
inline constexpr double kBfsAlpha = 14.0;
inline constexpr double kBfsBeta = 24.0;

struct hybrid_bfs_config {
  bfs_mode mode = bfs_mode::hybrid;
  /// α/β heuristic knobs (tests force one direction with extreme values).
  double alpha = kBfsAlpha;
  double beta = kBfsBeta;
  /// Mailbox/topology/fault knobs, shared with the async queue so one
  /// chaos schedule drives both drivers.
  queue_config queue{};
  /// Test hook: called on every rank at the start of each level, after
  /// the direction decision.  `switched` is true on the first bottom-up
  /// level — the chaos suite injects faults exactly there.
  std::function<void(std::uint64_t level, bool bottom_up, bool switched)>
      on_level;
};

/// Per-level record of what the traversal did — identical on every rank
/// (all fields derive from the level's collectives).
struct bfs_level_stats {
  std::uint64_t level = 0;
  bool bottom_up = false;
  std::uint64_t frontier_vertices = 0;
  std::uint64_t frontier_edges = 0;  ///< global degree mass of the frontier
  std::uint64_t claims_sent = 0;     ///< mailbox records this level, global
};

template <typename Graph>
struct mode_bfs_result {
  graph::vertex_state<bfs_state> state;
  traversal_stats stats;
  mailbox::routed_mailbox::traffic_matrix matrix;
  /// Empty for bfs_mode::async (the visitor queue has no levels).
  std::vector<bfs_level_stats> levels;
  /// First level executed bottom-up, or -1 if the traversal never
  /// switched (pure top-down, or async).
  std::int64_t direction_switch_level = -1;
};

namespace detail {

/// The 16-byte wire record: "set `target`'s level to current+1 with
/// `parent` as its tree edge".  Top-down mails it to the child's master;
/// bottom-up mails it to the claiming vertex's own master.
struct bfs_claim {
  std::uint64_t target_bits;
  std::uint64_t parent_bits;
};
static_assert(std::is_trivially_copyable_v<bfs_claim>);

/// The per-level quiescence payload: mailbox counters plus a busy flag.
struct level_flow {
  std::uint64_t sent;
  std::uint64_t delivered;
  std::uint64_t busy;
};

/// The per-level frontier totals (α/β heuristic inputs).
struct level_totals {
  std::uint64_t vertices;
  std::uint64_t edges;
  std::uint64_t unvisited_edges;
};

template <typename Graph>
class level_sync_bfs {
  static_assert(graph::partitioned_graph<Graph>,
                "Graph must satisfy the partitioned_graph concept "
                "(graph/partitioner.hpp)");

 public:
  level_sync_bfs(Graph& g, const hybrid_bfs_config& cfg)
      : graph_(&g),
        cfg_(cfg),
        mailbox_(g.comm(), {cfg.queue.topo, cfg.queue.aggregation_bytes,
                            cfg.queue.data_tag}),
        state_(g.template make_state<bfs_state>(bfs_state{})) {}

  mode_bfs_result<Graph> run(graph::vertex_locator source) {
    runtime::comm& c = graph_->comm();
    traversal_observer observer(c, mailbox_, observed_);

    // Frontier bit space: one bit per local slot, locator-addressed
    // ((owner, local_id) → word_off_[owner] + local_id/64).  Sizes are
    // fixed for the whole traversal, so every per-level buffer below
    // reaches steady-state capacity at level 0.
    cur_.resize(graph_->num_slots());
    next_.resize(graph_->num_slots());
    const auto word_counts =
        c.all_gather(static_cast<std::uint64_t>(next_.words().size()));
    word_off_.assign(word_counts.size() + 1, 0);
    for (std::size_t r = 0; r < word_counts.size(); ++r) {
      word_off_[r + 1] = word_off_[r] + word_counts[r];
    }
    visited_.assign(word_off_.back(), 0);
    frontier_words_.reserve(word_off_.back());

    // Unvisited edge mass starts as this rank's master degree sum.
    for (std::size_t s = 0; s < graph_->num_slots(); ++s) {
      if (graph_->is_master(s)) unvisited_mass_ += graph_->degree_of(s);
    }

    // Seed the traversal: the source's master claims it at level 0.
    if (graph_->rank() == source.owner()) {
      const auto slot = static_cast<std::size_t>(source.local_id());
      state_.local(slot).level = 0;
      state_.local(slot).parent_bits = source.bits();
      next_.insert(slot);
      next_mass_ += graph_->degree_of(slot);
      unvisited_mass_ -= graph_->degree_of(slot);
    }

    std::vector<bfs_level_stats> levels;
    std::int64_t switch_level = -1;
    bool bottom_up = cfg_.mode == bfs_mode::bottomup;
    std::uint64_t prev_sent = 0;
    const bool chaos_on =
        cfg_.queue.faults.enabled() && cfg_.queue.faults.stall_prob > 0;
    util::chaos_stream chaos(cfg_.queue.faults.seed,
                             0xB01DFACEu ^ static_cast<std::uint64_t>(
                                               graph_->rank()));

    for (std::uint64_t level = 0;; ++level) {
      // (1) Bitmap broadcast: next-frontier words, rank-ordered.
      // (2) One all_reduce carries the heuristic inputs.
      level_totals totals{};
      {
        const obs::phase_scope term_scope(obs::phase::term);
        c.all_gatherv_into(next_.words(), frontier_words_, nullptr);
        totals = c.all_reduce(
            level_totals{next_.count(), next_mass_, unvisited_mass_},
            [](level_totals a, level_totals b) {
              return level_totals{a.vertices + b.vertices, a.edges + b.edges,
                                  a.unvisited_edges + b.unvisited_edges};
            });
      }
      if (totals.vertices == 0) break;
      for (std::size_t i = 0; i < visited_.size(); ++i) {
        visited_[i] |= frontier_words_[i];
      }

      // Direction decision — same collective inputs on every rank, so
      // all ranks agree without another message.
      const bool was_bottom_up = bottom_up;
      switch (cfg_.mode) {
        case bfs_mode::topdown:
          bottom_up = false;
          break;
        case bfs_mode::bottomup:
          bottom_up = true;
          break;
        default:  // hybrid (async never reaches this driver)
          if (!bottom_up) {
            // One-way hysteresis: after the bottom-up phase ends, stay
            // top-down for the shrinking tail (re-entering every level
            // once m_u has collapsed would flip-flop to no benefit).
            // The m_u > 0 guard keeps the exhausted final level — where
            // any frontier mass beats a zero threshold — from counting
            // as a direction switch.
            bottom_up = !left_bottom_up_ && totals.unvisited_edges > 0 &&
                        static_cast<double>(totals.edges) >
                            static_cast<double>(totals.unvisited_edges) /
                                cfg_.alpha;
          } else if (static_cast<double>(totals.vertices) <
                     static_cast<double>(graph_->total_vertices()) /
                         cfg_.beta) {
            bottom_up = false;
            left_bottom_up_ = true;
          }
          break;
      }
      const bool switched =
          bottom_up && (!was_bottom_up || level == 0) && switch_level < 0;
      if (switched) switch_level = static_cast<std::int64_t>(level);
      if (cfg_.on_level) cfg_.on_level(level, bottom_up, switched);
      observer.level(level, totals.vertices, bottom_up, next_.count(), waves_,
                     stats_.visitors_executed);

      level_ = level;
      flip(cur_, next_);
      next_mass_ = 0;

      // (3) Scan + (4) counting quiescence over the claims.
      if (chaos_on && chaos.decide(cfg_.queue.faults.stall_prob)) {
        std::this_thread::sleep_for(
            chaos.duration_up_to(cfg_.queue.faults.max_stall));
      }
      if (bottom_up) {
        bottom_up_scan();
      } else {
        top_down_scan();
      }
      const std::uint64_t level_sent = quiesce(c, chaos_on, chaos);

      levels.push_back({level, bottom_up, totals.vertices, totals.edges,
                        level_sent - prev_sent});
      prev_sent = level_sent;
      observer.poll();
    }

    // The "bfs" section records the per-level direction trace and the
    // direction-switch level (what `sfg_obs check --bfs-levels` gates).
    observer.end(stats_, waves_, "bfs",
                 [&] { return bfs_section(levels, switch_level); });
    c.barrier();
    return {std::move(state_), stats_, mailbox_.matrix(), std::move(levels),
            switch_level};
  }

 private:
  [[nodiscard]] bool word_test(const std::vector<std::uint64_t>& words,
                               graph::vertex_locator v) const {
    const std::uint64_t id = v.local_id();
    const std::size_t w =
        word_off_[static_cast<std::size_t>(v.owner())] + (id >> 6);
    return (words[w] >> (id & 63)) & 1u;
  }

  void top_down_scan() {
    const obs::phase_scope vscope(obs::phase::visit);
    const std::size_t sources = graph_->num_sources();
    for (std::size_t s = 0; s < sources; ++s) {
      const graph::vertex_locator v = graph_->locator_of(s);
      if (!word_test(frontier_words_, v)) continue;
      graph_->for_each_out_edge(s, [&](graph::vertex_locator t) {
        if (word_test(visited_, t)) return;  // already claimed, skip traffic
        send_claim(t, v);
      });
    }
  }

  void bottom_up_scan() {
    const obs::phase_scope vscope(obs::phase::visit);
    const std::size_t sources = graph_->num_sources();
    for (std::size_t s = 0; s < sources; ++s) {
      const graph::vertex_locator v = graph_->locator_of(s);
      if (word_test(visited_, v)) continue;
      graph_->for_each_out_edge_while(s, [&](graph::vertex_locator t) {
        if (!word_test(frontier_words_, t)) return true;  // keep probing
        send_claim(v, t);
        return false;  // first frontier neighbor wins; stop the probe
      });
    }
  }

  void send_claim(graph::vertex_locator target, graph::vertex_locator parent) {
    ++stats_.visitors_pushed;
    ++stats_.visitors_sent;
    const bfs_claim cl{target.bits(), parent.bits()};
    const int master = graph_->master_rank(target);
    if (master == graph_->rank()) {
      // This rank masters the target (in bottom-up levels almost every
      // claim): apply it here, counted as one mailbox record sent and
      // delivered, instead of framing it for a second walk in quiesce.
      mailbox_.count_local_delivery(sizeof(cl));
      deliver_claim(cl);
      return;
    }
    mailbox_.send(master, runtime::as_bytes_of(cl));
  }

  void deliver_claim(const bfs_claim& cl) {
    ++stats_.visitors_delivered;
    const auto v = graph::vertex_locator::from_bits(cl.target_bits);
    assert(v.owner() == graph_->rank());  // claims go to the master only
    const auto slot = static_cast<std::size_t>(v.local_id());
    auto& st = state_.local(slot);
    if (st.reached()) {  // a competing claim won this level (or earlier)
      ++stats_.pre_visit_rejected;
      return;
    }
    st.level = level_ + 1;
    st.parent_bits = cl.parent_bits;
    next_.insert(slot);
    next_mass_ += graph_->degree_of(slot);
    unvisited_mass_ -= graph_->degree_of(slot);
    ++stats_.visitors_executed;
  }

  /// Drain claims until the level is globally done: every record sent has
  /// been delivered and every rank is idle (mailbox empty, inbox empty —
  /// which includes fault-delayed and duplicated packets, so a stale
  /// packet can never leak into the next level's counters).  Returns the
  /// cumulative records_sent at quiescence (per-level delta = claims).
  std::uint64_t quiesce(runtime::comm& c, bool chaos_on,
                        util::chaos_stream& chaos) {
    auto deliver = [this](int /*origin*/, std::span<const std::byte> bytes) {
      bfs_claim cl;
      std::memcpy(&cl, bytes.data(), sizeof(bfs_claim));
      this->deliver_claim(cl);
    };
    for (;;) {
      {
        const obs::phase_scope poll_scope(obs::phase::poll);
        if (chaos_on && chaos.decide(cfg_.queue.faults.stall_prob)) {
          std::this_thread::sleep_for(
              chaos.duration_up_to(cfg_.queue.faults.max_stall));
        }
        runtime::message m;
        while (c.try_recv(m)) mailbox_.process_packet(m, deliver);
        mailbox_.tick();
        mailbox_.flush();
      }
      const obs::phase_scope term_scope(obs::phase::term);
      const auto& ms = mailbox_.stats();
      const level_flow mine{
          ms.records_sent, ms.records_delivered,
          (mailbox_.idle() && c.inbox_empty()) ? std::uint64_t{0}
                                               : std::uint64_t{1}};
      const level_flow tot =
          c.all_reduce(mine, [](level_flow a, level_flow b) {
            return level_flow{a.sent + b.sent, a.delivered + b.delivered,
                              a.busy + b.busy};
          });
      ++waves_;
      if (tot.sent == tot.delivered && tot.busy == 0) return tot.sent;
    }
  }

  [[nodiscard]] obs::json bfs_section(
      const std::vector<bfs_level_stats>& levels,
      std::int64_t switch_level) const {
    obs::json bfs = obs::json::object();
    bfs["mode"] = std::string(bfs_mode_name(cfg_.mode));
    bfs["alpha"] = cfg_.alpha;
    bfs["beta"] = cfg_.beta;
    bfs["direction_switch_level"] = switch_level;
    obs::json trace = obs::json::array();
    for (const auto& ls : levels) {
      obs::json l = obs::json::object();
      l["level"] = ls.level;
      l["direction"] = std::string(ls.bottom_up ? "bottomup" : "topdown");
      l["frontier_vertices"] = ls.frontier_vertices;
      l["frontier_edges"] = ls.frontier_edges;
      l["claims_sent"] = ls.claims_sent;
      trace.push_back(std::move(l));
    }
    bfs["levels"] = std::move(trace);
    return bfs;
  }

  Graph* graph_;
  hybrid_bfs_config cfg_;
  mailbox::routed_mailbox mailbox_;
  graph::vertex_state<bfs_state> state_;
  frontier cur_;
  frontier next_;
  /// Word offset of each rank's section in the gathered global bitmap.
  std::vector<std::uint64_t> word_off_;
  /// OR of every broadcast frontier so far (global, locator-addressed).
  std::vector<std::uint64_t> visited_;
  /// This level's gathered global frontier (reused buffer).
  std::vector<std::uint64_t> frontier_words_;
  std::uint64_t level_ = 0;
  bool left_bottom_up_ = false;
  std::uint64_t next_mass_ = 0;
  std::uint64_t unvisited_mass_ = 0;
  std::uint32_t waves_ = 0;
  traversal_stats stats_;
  traversal_observer::history observed_;
};

}  // namespace detail

/// Collective BFS from `source` in any mode.  bfs_mode::async delegates
/// to the paper's visitor-queue BFS (core/bfs.hpp); the other modes run
/// the level-synchronous driver above.  All modes fill master slots with
/// final (level, parent); the async path additionally converges replica
/// and ghost copies, which no consumer may rely on (bfs_validate checks
/// masters only).
template <typename Graph>
mode_bfs_result<Graph> run_bfs_mode(Graph& g, graph::vertex_locator source,
                                    const hybrid_bfs_config& cfg = {}) {
  if (cfg.mode == bfs_mode::async) {
    auto r = run_bfs(g, source, cfg.queue);
    return {std::move(r.state), r.stats, std::move(r.matrix), {}, -1};
  }
  detail::level_sync_bfs<Graph> driver(g, cfg);
  return driver.run(source);
}

}  // namespace sfg::core
