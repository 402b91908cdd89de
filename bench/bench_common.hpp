/// \file bench_common.hpp
/// Shared plumbing for the figure/table reproduction benches.
///
/// Scale note (DESIGN.md §2): the paper ran on BG/P (131K cores) and
/// NVRAM clusters at 10^9..10^12 edges; this repo runs p in-process ranks
/// on one machine at ~10^5..10^7 edges.  Wall-clock TEPS therefore cannot
/// match the paper's absolute numbers; every bench also reports
/// *bottleneck-rank work* (max per-rank delivered visitors), which is the
/// machine-independent quantity behind the paper's scaling shapes.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "runtime/runtime.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sfg::bench {

/// One BFS run's aggregate measurements.
struct bfs_measurement {
  double seconds = 0;
  std::uint64_t reached = 0;
  std::uint64_t traversed_edges = 0;  ///< undirected convention (|E|/2 form)
  std::uint64_t max_rank_delivered = 0;  ///< bottleneck-rank visitor load
  std::uint64_t total_delivered = 0;
  std::uint64_t ghost_filtered = 0;
  /// Bottleneck-rank mailbox traffic (records originated + relayed): the
  /// network analogue of max_rank_delivered.  A partitioner can balance
  /// delivered visitors yet still overload one rank's send path.
  std::uint64_t max_rank_msgs = 0;
  /// Traffic-matrix scalars (zero unless obs::metrics_on() during the
  /// run — the reporter arms it via metrics).  max_pair_bytes is the
  /// hottest origin->dest payload stream; matrix_imbalance is max
  /// off-diagonal pair bytes over the mean off-diagonal pair bytes (1.0 =
  /// perfectly even); traffic_amplification is wire bytes (headers +
  /// routing relays) over first-send payload bytes — what the topology
  /// and aggregation settings cost on top of the algorithm's demand.
  std::uint64_t max_pair_bytes = 0;
  double matrix_imbalance = 0;
  double traffic_amplification = 0;

  [[nodiscard]] double teps() const {
    return seconds > 0 ? static_cast<double>(traversed_edges) / seconds : 0;
  }
};

/// Run BFS over an already-built graph and aggregate the measurement on
/// every rank (identical values).
template <typename Graph>
bfs_measurement measure_bfs(Graph& g, graph::vertex_locator source,
                            const core::queue_config& qcfg) {
  util::timer t;
  auto bfs = core::run_bfs(g, source, qcfg);
  bfs_measurement m;
  m.seconds = t.elapsed_s();

  std::uint64_t local_reached = 0;
  std::uint64_t local_edges = 0;
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    if (g.is_master(s) && bfs.state.local(s).reached()) {
      ++local_reached;
      local_edges += g.degree_of(s);
    }
  }
  auto& c = g.comm();
  m.reached = c.all_reduce(local_reached, std::plus<>());
  m.traversed_edges = c.all_reduce(local_edges, std::plus<>()) / 2;
  m.max_rank_delivered =
      c.all_reduce(bfs.stats.visitors_delivered,
                   [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  m.total_delivered =
      c.all_reduce(bfs.stats.visitors_delivered, std::plus<>());
  m.ghost_filtered = c.all_reduce(bfs.stats.ghost_filtered, std::plus<>());
  m.max_rank_msgs = c.all_reduce(
      bfs.stats.mailbox.records_sent + bfs.stats.mailbox.records_forwarded,
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });

  // Traffic-matrix scalars: each rank holds one origin row (sent_bytes
  // per final dest) plus its wire bytes (flush_bytes per next hop).
  const auto max_u64 = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a : b;
  };
  std::uint64_t row_max_off = 0, row_sum_off = 0, row_sum = 0, row_wire = 0;
  const auto self = static_cast<std::size_t>(c.rank());
  for (std::size_t d = 0; d < bfs.matrix.sent_bytes.size(); ++d) {
    const std::uint64_t b = bfs.matrix.sent_bytes[d];
    row_sum += b;
    if (d != self) {
      row_sum_off += b;
      if (b > row_max_off) row_max_off = b;
    }
  }
  for (const std::uint64_t b : bfs.matrix.flush_bytes) row_wire += b;
  m.max_pair_bytes = c.all_reduce(row_max_off, max_u64);
  const std::uint64_t sum_off = c.all_reduce(row_sum_off, std::plus<>());
  const std::uint64_t sum_all = c.all_reduce(row_sum, std::plus<>());
  const std::uint64_t sum_wire = c.all_reduce(row_wire, std::plus<>());
  const auto p = static_cast<std::uint64_t>(c.size());
  const double mean_off = p > 1 ? static_cast<double>(sum_off) /
                                      static_cast<double>(p * (p - 1))
                                : 0.0;
  m.matrix_imbalance =
      mean_off > 0 ? static_cast<double>(m.max_pair_bytes) / mean_off : 0.0;
  m.traffic_amplification =
      sum_all > 0 ? static_cast<double>(sum_wire) / static_cast<double>(sum_all)
                  : 0.0;
  return m;
}

/// Deterministically pick a BFS source that is guaranteed to exist and
/// have edges: the globally maximum-degree vertex (ties to the smallest
/// locator).  Collective.
template <typename Graph>
graph::vertex_locator pick_source(Graph& g) {
  struct cand {
    std::uint64_t degree;
    std::uint64_t inv_bits;  // ~bits so larger == smaller locator
  };
  cand best{0, 0};
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    if (!g.is_master(s)) continue;
    const cand c{g.degree_of(s), ~g.locator_of(s).bits()};
    if (c.degree > best.degree ||
        (c.degree == best.degree && c.inv_bits > best.inv_bits)) {
      best = c;
    }
  }
  const auto winner = g.comm().all_reduce(best, [](cand a, cand b) {
    if (a.degree != b.degree) return a.degree > b.degree ? a : b;
    return a.inv_bits > b.inv_bits ? a : b;
  });
  return graph::vertex_locator::from_bits(~winner.inv_bits);
}

/// As pick_source(), but returns the hub's *global id* — needed when two
/// differently-partitioned graphs over the same edge list must agree on
/// the source (fig12).
template <typename Graph>
std::uint64_t pick_hub_gid(Graph& g) {
  struct cand {
    std::uint64_t degree;
    std::uint64_t inv_gid;
  };
  cand best{0, 0};
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    if (!g.is_master(s) || g.degree_of(s) == 0) continue;
    const cand c{g.degree_of(s), ~g.global_id_of(s)};
    if (c.degree > best.degree ||
        (c.degree == best.degree && c.inv_gid > best.inv_gid)) {
      best = c;
    }
  }
  const auto winner = g.comm().all_reduce(best, [](cand a, cand b) {
    if (a.degree != b.degree) return a.degree > b.degree ? a : b;
    return a.inv_gid > b.inv_gid ? a : b;
  });
  return ~winner.inv_gid;
}

/// Generate this rank's RMAT slice.
inline std::vector<gen::edge64> rmat_slice_for(const gen::rmat_config& cfg,
                                               int rank, int p) {
  const auto r = gen::slice_for_rank(cfg.num_edges(), rank, p);
  return gen::rmat_slice(cfg, r.begin, r.end);
}

inline std::vector<gen::edge64> sw_slice_for(const gen::sw_config& cfg,
                                             int rank, int p) {
  const auto r = gen::slice_for_rank(cfg.num_edges(), rank, p);
  return gen::sw_slice(cfg, r.begin, r.end);
}

inline std::vector<gen::edge64> pa_slice_for(const gen::pa_config& cfg,
                                             int rank, int p) {
  const auto r = gen::slice_for_rank(cfg.num_edges(), rank, p);
  return gen::pa_slice(cfg, r.begin, r.end);
}

/// Print the standard bench banner.
inline void banner(const char* id, const char* paper_ref,
                   const char* description) {
  std::cout << "=== " << id << " — " << paper_ref << " ===\n"
            << description << "\n\n";
}

/// Serialize one util::table, parsing numeric-looking cells back into
/// JSON numbers so plots can consume BENCH_*.json without re-parsing.
inline obs::json table_to_json(const util::table& t) {
  auto cell_json = [](const std::string& cell) {
    if (auto parsed = obs::json::parse(cell);
        parsed && parsed->is_number()) {
      return *parsed;
    }
    return obs::json(cell);
  };
  obs::json out = obs::json::object();
  obs::json headers = obs::json::array();
  for (const auto& h : t.headers()) headers.push_back(obs::json(h));
  out["headers"] = std::move(headers);
  obs::json rows = obs::json::array();
  for (const auto& r : t.rows()) {
    obs::json row = obs::json::array();
    for (const auto& cell : r) row.push_back(cell_json(cell));
    rows.push_back(std::move(row));
  }
  out["rows"] = std::move(rows);
  return out;
}

/// Drop-in replacement for banner() that additionally emits a
/// machine-readable BENCH_<id>.json run report when the bench exits:
/// bench id + paper reference, wall time, every table the bench printed
/// (numeric cells as numbers — graph params, times, TEPS), and the full
/// metrics-registry snapshot.  The report lands in $SFG_BENCH_DIR (or the
/// working directory), where CI picks it up as an artifact.
class reporter {
 public:
  reporter(const char* id, const char* paper_ref, const char* description)
      : id_(id), report_(id) {
    // Benches always measure with the registry live: the snapshot in the
    // report is the point of running them.
    obs::set_metrics_enabled(true);
    banner(id, paper_ref, description);
    report_.add_param("paper_ref", obs::json(paper_ref));
    report_.add_param("description", obs::json(description));
  }

  reporter(const reporter&) = delete;
  reporter& operator=(const reporter&) = delete;
  ~reporter() { write(); }

  void add_param(const std::string& key, obs::json v) {
    report_.add_param(key, std::move(v));
  }

  /// Record one printed table under `name` (e.g. "main").
  void add_table(const std::string& name, const util::table& t) {
    tables_[name] = table_to_json(t);
  }

  /// Write BENCH_<id>.json now (idempotent; also runs at destruction).
  bool write() {
    if (written_) return true;
    written_ = true;
    report_.add_section("schema_bench", obs::json("sfg-bench-report/1"));
    report_.add_section("wall_time_s", obs::json(timer_.elapsed_s()));
    report_.add_section("tables", tables_);
    const char* dir = std::getenv("SFG_BENCH_DIR");
    const std::string path =
        (dir != nullptr ? std::string(dir) + "/" : std::string()) + "BENCH_" +
        id_ + ".json";
    const bool ok = report_.write(path);
    if (ok) std::cout << "\n[report] " << path << "\n";
    return ok;
  }

 private:
  std::string id_;
  obs::run_report report_;
  obs::json tables_ = obs::json::object();
  util::timer timer_;
  bool written_ = false;
};

}  // namespace sfg::bench
