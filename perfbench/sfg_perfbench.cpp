/// \file sfg_perfbench.cpp
/// End-to-end benchmark of the three paper workloads
/// (perfbench/README.md has the metric definitions).
///
///   sfg_perfbench reference --workload W --seed N [--scale S]
///       Serial answers for the workload's graph: the BFS roots (drawn here
///       from the seed, Graph500-style: degree >= 1) with their reached
///       vertex and traversed edge counts, or the exact triangle count.
///       Runs in its own process so the serial graph stays out of the
///       measured process's time and RSS.
///
///   sfg_perfbench run --workload W --seed N --seconds T --trace 0|1
///                     --ref FILE [--scale S] [--spans FILE] ...
///       Builds the graph on the workload's p in-process ranks, then runs
///       a closed loop of collective operations (each issued after the
///       previous one completed) for T seconds and at least one operation
///       per root, checking every answer untimed, then sets the graph up
///       again for the set-up median.  Prints one JSON line: metrics,
///       attempted/failed, invariant checks and the observability gates.
///
/// With --trace 1 the loop alternates untraced and traced operations on
/// the same roots; only the library's metrics gate is armed for the traced
/// ones.  Per-layer numbers come from the stats structs the calls return
/// and from spans this program records around them; the library gets no
/// extra instrumentation.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/bfs_hybrid.hpp"
#include "core/bfs_validate.hpp"
#include "core/triangles.hpp"
#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/stats_fields.hpp"
#include "obs/trace.hpp"
#include "reference/serial_graph.hpp"
#include "runtime/runtime.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"

namespace {

using namespace sfg;
using steady = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class workload_kind { async_bfs, hybrid_bfs_em, triangles_sw };

struct workload_spec {
  workload_kind kind;
  const char* name;
  unsigned default_scale;
  int ranks;  ///< p
};

constexpr workload_spec kWorkloads[] = {
    {workload_kind::async_bfs, "async-bfs", 18, 4},
    {workload_kind::hybrid_bfs_em, "hybrid-bfs-em", 18, 2},
    {workload_kind::triangles_sw, "triangles-sw", 13, 4},
};

constexpr std::uint64_t kEdgeFactor = 16;    // RMAT edges per vertex
constexpr std::uint64_t kSwDegree = 16;      // small-world ring degree
constexpr double kSwRewire = 0.1;            // small-world rewire probability
constexpr std::uint32_t kBfsGhosts = 256;    // sfg_cli bfs default
constexpr std::size_t kEmPageBytes = 512;    // sfg_cli --em defaults
constexpr std::size_t kEmFrames = 64;
constexpr std::size_t kRoots = 128;          // BFS roots drawn per seed
constexpr std::size_t kWarmupOps = 8;        // validated, not measured
constexpr std::size_t kMinOps = kRoots;      // every root measured once
constexpr double kMaxLoopSeconds = 120.0;    // hard stop for the op loop
constexpr int kMinSetups = 3;
constexpr double kSetupSeconds = 2.0;        // set-up time worth repeating
constexpr int kMaxSetups = 25;

bool is_bfs(workload_kind k) { return k != workload_kind::triangles_sw; }

struct options {
  std::string command;
  const workload_spec* workload = nullptr;
  std::uint64_t seed = 1;
  unsigned scale = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string ref_path;
  std::string spans_path;
};

std::uint64_t total_input_edges(const options& o) {
  if (o.workload->kind == workload_kind::triangles_sw) {
    return gen::sw_config{.num_vertices = std::uint64_t{1} << o.scale,
                          .degree = kSwDegree}
        .num_edges();
  }
  return gen::rmat_config{.scale = o.scale, .edge_factor = kEdgeFactor}
      .num_edges();
}

/// Edges [begin, end) of the workload's input edge list.  The graph is a
/// pure function of (workload, scale, seed).
std::vector<gen::edge64> generate(const options& o, std::uint64_t begin,
                                  std::uint64_t end) {
  if (o.workload->kind == workload_kind::triangles_sw) {
    const gen::sw_config cfg{.num_vertices = std::uint64_t{1} << o.scale,
                             .degree = kSwDegree,
                             .rewire = kSwRewire,
                             .seed = o.seed};
    return gen::sw_slice(cfg, begin, end);
  }
  const gen::rmat_config cfg{
      .scale = o.scale, .edge_factor = kEdgeFactor, .seed = o.seed};
  return gen::rmat_slice(cfg, begin, end);
}

graph::graph_build_config build_config(const options& o) {
  graph::graph_build_config cfg;
  cfg.num_ghosts = is_bfs(o.workload->kind) ? kBfsGhosts : 0;
  return cfg;
}

// ---------------------------------------------------------------------------
// Reference answers (separate process)
// ---------------------------------------------------------------------------

struct root_answer {
  std::uint64_t gid = 0;
  std::uint64_t reached = 0;
  std::uint64_t traversed = 0;
};

struct reference_answers {
  std::vector<root_answer> roots;
  std::uint64_t triangles = 0;
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int run_reference(const options& o) {
  const auto g =
      reference::serial_graph::from_edges(generate(o, 0, total_input_edges(o)));
  std::cout << "graph " << g.num_vertices() << " " << g.num_edges() << "\n";
  if (o.workload->kind == workload_kind::triangles_sw) {
    std::cout << "triangles " << reference::serial_triangle_count(g) << "\n";
    return 0;
  }
  // Graph500-style roots: uniform vertex ids with at least one edge,
  // distinct, drawn from a stream keyed by the seed alone.
  const std::uint64_t id_space = std::uint64_t{1} << o.scale;
  std::vector<std::uint64_t> chosen;
  std::uint64_t x = mix64(o.seed ^ 0x726f6f7473ULL);
  for (std::size_t tries = 0;
       chosen.size() < kRoots && tries < 1000 * kRoots; ++tries) {
    x = mix64(x);
    const std::uint64_t v = x % id_space;
    if (v >= g.num_vertices() || g.degree(v) == 0) continue;
    if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) continue;
    chosen.push_back(v);
  }
  // A BFS reaches exactly its root's connected component, so one serial
  // BFS per component the roots fall in answers every root.
  std::vector<std::uint32_t> component(g.num_vertices(), UINT32_MAX);
  std::vector<root_answer> per_component;
  for (const std::uint64_t r : chosen) {
    if (component[r] == UINT32_MAX) {
      const auto id = static_cast<std::uint32_t>(per_component.size());
      const auto levels = reference::serial_bfs(g, r);
      root_answer a;
      std::uint64_t degree_sum = 0;
      for (std::uint64_t v = 0; v < levels.size(); ++v) {
        if (levels[v] == UINT64_MAX) continue;
        component[v] = id;
        ++a.reached;
        degree_sum += g.degree(v);
      }
      a.traversed = degree_sum / 2;
      per_component.push_back(a);
    }
    const root_answer& a = per_component[component[r]];
    std::cout << "root " << r << " " << a.reached << " " << a.traversed
              << "\n";
  }
  return 0;
}

std::optional<reference_answers> read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  reference_answers ref;
  std::string tag;
  while (in >> tag) {
    if (tag == "root") {
      root_answer r;
      in >> r.gid >> r.reached >> r.traversed;
      ref.roots.push_back(r);
    } else if (tag == "triangles") {
      in >> ref.triangles;
    } else {
      std::string rest;
      std::getline(in, rest);
    }
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Spans recorded around library calls (rank 0's clock)
// ---------------------------------------------------------------------------

struct span_record {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root span
};

class span_log {
 public:
  span_log() : epoch_(steady::now()) {}

  int open(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), now_us(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    auto& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    return (s.end_us - s.start_us) * 1e-6;
  }

  /// Chrome-trace JSON (complete events on one track; args.parent links a
  /// span to the span that caused it).
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                    s.end_us - s.start_us, i, s.parent);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(steady::now() - epoch_)
        .count();
  }
  steady::time_point epoch_;
  std::vector<span_record> spans_;
};

// ---------------------------------------------------------------------------
// Shared run state (rank threads write their own slots; rank 0 the rest)
// ---------------------------------------------------------------------------

/// Cache counters the benchmark reads (the stats struct also carries
/// histograms, which a per-op delta does not need).
struct cache_counts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t dev_bytes_read = 0;
};

cache_counts counts_of(const storage::page_cache& cache) {
  const auto s = cache.stats();
  return {s.hits, s.misses, s.evictions, s.bytes_requested, s.dev_bytes_read};
}

cache_counts operator-(const cache_counts& a, const cache_counts& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
          a.bytes_requested - b.bytes_requested,
          a.dev_bytes_read - b.dev_bytes_read};
}

/// One rank's sums over the traced operations.
struct rank_layers {
  core::traversal_stats trav{};
  runtime::comm::traffic_stats comm{};
  cache_counts cache{};
};

struct op_sample {
  double ms = 0;
  double edges = 0;
  std::size_t root = 0;  ///< index into the reference roots (0 for triangles)
  bool traced = false;
  bool warmup = false;  ///< checked, but in no metric
};

struct invariant_checks {
  std::uint64_t ops_checked = 0;
  std::uint64_t mailbox_unbalanced = 0;  ///< sent != delivered over ranks
  std::uint64_t mailbox_registry_mismatch = 0;
  std::uint64_t cache_registry_mismatch = 0;  ///< hits+misses != gets
  std::uint64_t phase_overrun = 0;  ///< phase ns > ranks' summed op walls
  std::uint64_t untraced_phase_nonzero = 0;
  std::uint64_t vq_work_on_frontier = 0;  ///< visitor-queue work in hybrid
  std::uint64_t cache_gets_in_memory = 0;  ///< cache gets without a cache

  [[nodiscard]] bool ok() const {
    return mailbox_unbalanced == 0 && mailbox_registry_mismatch == 0 &&
           cache_registry_mismatch == 0 && phase_overrun == 0 &&
           untraced_phase_nonzero == 0 && vq_work_on_frontier == 0 &&
           cache_gets_in_memory == 0;
  }
};

struct run_state {
  const options* opt = nullptr;
  const reference_answers* ref = nullptr;
  span_log spans;
  std::vector<double> setup_s, gen_s, partition_s, store_s;
  std::vector<std::uint64_t> local_edges;  ///< per rank, the loop's graph
  std::vector<op_sample> ops;
  std::vector<rank_layers> layers;  ///< per rank
  std::uint64_t term_waves = 0;     ///< traced ops, max over ranks per op
  std::uint64_t levels = 0;         ///< frontier levels, traced ops
  std::uint64_t bottom_up_levels = 0;
  std::uint64_t claims = 0;
  double peak_rss_mb = 0;  ///< after the loop, before the extra set-ups
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  invariant_checks checks;
};

// ---------------------------------------------------------------------------
// Graph set-up: generation, then build_partition, then the graph store
// ---------------------------------------------------------------------------

struct em_storage {
  storage::memory_device dev;
  storage::page_cache cache{dev, {kEmPageBytes, kEmFrames}};
};

using memory_graph = graph::distributed_graph<graph::in_memory_edges>;
using external_graph = graph::distributed_graph<graph::external_edges>;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename G>
struct built_graph {
  std::unique_ptr<em_storage> em;  ///< external graphs only; outlives g
  std::optional<G> g;
};

/// One timed set-up, collective.  Every stage ends at a barrier, so a stage
/// time is the slowest rank's.
template <typename G>
void setup_once(runtime::comm& c, run_state& st, built_graph<G>& out) {
  const options& o = *st.opt;
  const bool r0 = c.rank() == 0;
  out.g.reset();
  out.em.reset();
  c.barrier();
  const int setup_span = r0 ? st.spans.open("setup") : -1;
  const int gen_span = r0 ? st.spans.open("gen", setup_span) : -1;
  const auto slice =
      gen::slice_for_rank(total_input_edges(o), c.rank(), c.size());
  auto edges = generate(o, slice.begin, slice.end);
  c.barrier();
  if (r0) st.gen_s.push_back(st.spans.close(gen_span));
  const int part_span =
      r0 ? st.spans.open("graph.partition", setup_span) : -1;
  graph::partition_blueprint bp =
      graph::build_partition(c, std::move(edges), build_config(o));
  c.barrier();
  if (r0) st.partition_s.push_back(st.spans.close(part_span));
  const int store_span = r0 ? st.spans.open("graph.store", setup_span) : -1;
  if constexpr (std::is_same_v<G, external_graph>) {
    out.em = std::make_unique<em_storage>();
    storage::write_array<std::uint64_t>(out.em->dev, 0, bp.adj_bits);
    graph::external_edges store(out.em->cache, 0, bp.adj_bits.size());
    bp.adj_bits.clear();
    bp.adj_bits.shrink_to_fit();
    out.g.emplace(c, std::move(bp), std::move(store));
  } else {
    graph::in_memory_edges store(std::move(bp.adj_bits));
    out.g.emplace(c, std::move(bp), std::move(store));
  }
  c.barrier();
  if (r0) {
    st.store_s.push_back(st.spans.close(store_span));
    st.setup_s.push_back(st.spans.close(setup_span));
  }
}

// ---------------------------------------------------------------------------
// The operation loop
// ---------------------------------------------------------------------------

/// Counters read at an operation's barriers.  The registry values are
/// process-wide, so only rank 0's copy is used.
struct probe {
  runtime::comm::traffic_stats comm{};
  cache_counts cache{};
  std::uint64_t reg_gets = 0;
  std::uint64_t reg_packets = 0;
};

struct registry_handles {
  obs::counter& hits;
  obs::counter& misses;
  obs::counter& packets;
};

probe take_probe(runtime::comm& c, const em_storage* em,
                 const registry_handles& reg) {
  return {c.stats(), em != nullptr ? counts_of(em->cache) : cache_counts{},
          reg.hits.value() + reg.misses.value(), reg.packets.value()};
}

/// Untimed answer check of one BFS: reached and traversed-edge counts
/// against the serial reference, then, if `validate`, validate_bfs.
/// Collective.  Returns the Graph500 traversed-edge count and sets `why`
/// on a wrong answer.
template <typename G>
double check_bfs(runtime::comm& c, G& g, run_state& st,
                 graph::vertex_locator source, const root_answer& want,
                 const graph::vertex_state<core::bfs_state>& state, int op_span,
                 bool validate, std::string& why) {
  std::uint64_t reached = 0;
  std::uint64_t degree_sum = 0;
  for (std::size_t s = 0; s < g.num_slots(); ++s) {
    if (g.is_master(s) && state.local(s).reached()) {
      ++reached;
      degree_sum += g.degree_of(s);
    }
  }
  reached = c.all_reduce(reached, std::plus<>());
  const std::uint64_t traversed = c.all_reduce(degree_sum, std::plus<>()) / 2;
  int valid = 1;
  if (validate) {
    const int vspan =
        c.rank() == 0 ? st.spans.open("validate", op_span) : -1;
    const auto v = core::validate_bfs(g, source, state, {});
    valid = c.all_reduce(v.valid ? 1 : 0,
                         [](int a, int b) { return a < b ? a : b; });
    if (c.rank() == 0) st.spans.close(vspan);
  }
  const std::string root = "root " + std::to_string(want.gid);
  if (valid == 0) {
    why = "validate_bfs rejected the tree from " + root;
  } else if (reached != want.reached || traversed != want.traversed) {
    why = root + ": reached " + std::to_string(reached) + " (want " +
          std::to_string(want.reached) + "), traversed " +
          std::to_string(traversed) + " (want " +
          std::to_string(want.traversed) + ")";
  }
  return static_cast<double>(traversed);
}

/// Fold one traced operation into this rank's layer sums and check the
/// counter invariants across ranks.  Collective.
template <typename G>
void account_traced(runtime::comm& c, const G& g, run_state& st,
                    const core::traversal_stats& stats,
                    const std::vector<core::bfs_level_stats>& levels,
                    const probe& before, const probe& after, double wall_ns) {
  const workload_kind kind = st.opt->workload->kind;
  const auto cache_delta = after.cache - before.cache;
  rank_layers& mine = st.layers[static_cast<std::size_t>(c.rank())];
  obs::stats_add(mine.trav, stats);
  obs::stats_add(mine.comm, obs::stats_delta(after.comm, before.comm));
  mine.cache.hits += cache_delta.hits;
  mine.cache.misses += cache_delta.misses;
  mine.cache.evictions += cache_delta.evictions;
  mine.cache.bytes_requested += cache_delta.bytes_requested;
  mine.cache.dev_bytes_read += cache_delta.dev_bytes_read;

  const auto sum = [&c](std::uint64_t v) {
    return c.all_reduce(v, std::plus<>());
  };
  const std::uint64_t waves = c.all_reduce(
      static_cast<std::uint64_t>(stats.termination_waves),
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  // The returned mailbox delta opens at do_traversal, after the visitor
  // queue's seed pushes: one record per master vertex for triangles, the
  // source visitor for async BFS.  The level-synchronous BFS seeds
  // without the mailbox.
  const std::uint64_t seeds = kind == workload_kind::triangles_sw
                                  ? g.total_vertices()
                              : kind == workload_kind::async_bfs ? 1
                                                                 : 0;
  const std::uint64_t sent = sum(stats.mailbox.records_sent) + seeds;
  const std::uint64_t delivered = sum(stats.mailbox.records_delivered);
  const std::uint64_t packets = sum(stats.mailbox.packets_sent);
  const std::uint64_t gets = sum(cache_delta.hits + cache_delta.misses);
  const std::uint64_t ghost_filtered = sum(stats.ghost_filtered);
  const std::uint64_t phase_ns = sum(stats.phase.total_ns());
  const double walls_ns = c.all_reduce(wall_ns, std::plus<>());
  if (c.rank() != 0) return;

  st.term_waves += waves;
  auto& ck = st.checks;
  ++ck.ops_checked;
  if (sent != delivered) ++ck.mailbox_unbalanced;
  if (after.reg_packets - before.reg_packets != packets) {
    ++ck.mailbox_registry_mismatch;
  }
  const std::uint64_t reg_gets = after.reg_gets - before.reg_gets;
  if (reg_gets != gets) ++ck.cache_registry_mismatch;
  if (kind != workload_kind::hybrid_bfs_em && reg_gets != 0) {
    ++ck.cache_gets_in_memory;
  }
  // Each rank's phase scopes lie inside its own barrier-to-barrier window;
  // the slack covers clock-read granularity only.
  if (static_cast<double>(phase_ns) >
      walls_ns * 1.001 + 1e4 * static_cast<double>(c.size())) {
    ++ck.phase_overrun;
  }
  if (kind == workload_kind::hybrid_bfs_em) {
    // The level-synchronous BFS never runs the visitor queue: nothing is
    // ghost-filtered, and every traversal has levels.
    if (ghost_filtered != 0 || levels.empty()) ++ck.vq_work_on_frontier;
    st.levels += levels.size();
    for (const auto& l : levels) {
      if (l.bottom_up) ++st.bottom_up_levels;
      st.claims += l.claims_sent;
    }
  }
}

template <typename G>
void run_loop(runtime::comm& c, G& g, run_state& st, em_storage* em) {
  const options& o = *st.opt;
  const workload_kind kind = o.workload->kind;
  const bool r0 = c.rank() == 0;
  auto& reg = obs::metrics_registry::instance();
  const registry_handles handles{reg.get_counter("cache.hits"),
                                 reg.get_counter("cache.misses"),
                                 reg.get_counter("mailbox.packets_sent")};

  std::vector<graph::vertex_locator> sources;
  for (const auto& root : st.ref->roots) sources.push_back(g.locate(root.gid));
  core::hybrid_bfs_config bfs_cfg;
  bfs_cfg.mode = kind == workload_kind::hybrid_bfs_em ? core::bfs_mode::hybrid
                                                      : core::bfs_mode::async;

  // The first kWarmupOps operations are checked but not measured: the
  // first few run slower while allocator pools and mailbox arenas grow.
  // validate_bfs costs several traversals, so only the warm-up trees (the
  // first kWarmupOps roots) go through it; every operation is checked
  // against the reference counts.
  auto loop_start = steady::now();
  for (std::size_t i = 0;; ++i) {
    const bool warmup = i < kWarmupOps;
    const std::size_t n = warmup ? 0 : i - kWarmupOps;  // measured index
    if (n == 0) loop_start = steady::now();
    int go = 1;
    if (r0 && !warmup) {
      const double elapsed =
          std::chrono::duration<double>(steady::now() - loop_start).count();
      go = (elapsed < o.seconds || n < kMinOps) && elapsed < kMaxLoopSeconds
               ? 1
               : 0;
    }
    if (c.broadcast(go, 0) == 0) break;
    // Traced runs alternate untraced/traced operations on the same root.
    const bool traced = o.trace && !warmup && n % 2 == 1;
    const std::size_t k = (o.trace && !warmup ? n / 2 : i) %
                          std::max<std::size_t>(sources.size(), 1);
    if (r0) {
      obs::set_metrics_enabled(traced);
      ++st.attempted;
    }
    c.barrier();
    const probe before = take_probe(c, em, handles);
    c.barrier();

    // ---- timed: one collective operation, barrier to barrier ----
    const int op_span = r0 ? st.spans.open(traced ? "op.traced" : "op") : -1;
    const auto t0 = steady::now();
    std::optional<core::mode_bfs_result<G>> bfs;
    std::optional<core::triangle_count_result> tc;
    if (is_bfs(kind)) {
      bfs.emplace(core::run_bfs_mode(g, sources[k], bfs_cfg));
    } else {
      tc.emplace(core::run_triangle_count(g, {}));
    }
    c.barrier();
    const auto t1 = steady::now();
    const probe after = take_probe(c, em, handles);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r0) {
      st.spans.close(op_span);
      st.ops.push_back({wall_ms, 0.0, k, traced, warmup});
    }

    // ---- untimed: answer check, layer accounting, invariants ----
    std::string why;
    double edges = 0;
    if (bfs) {
      edges = check_bfs(c, g, st, sources[k], st.ref->roots[k], bfs->state,
                        op_span, warmup, why);
    } else {
      edges = static_cast<double>(g.total_edges()) / 2.0;
      if (tc->total_triangles != st.ref->triangles) {
        why = "triangles " + std::to_string(tc->total_triangles) + " (want " +
              std::to_string(st.ref->triangles) + ")";
      }
    }
    if (r0) {
      st.ops.back().edges = edges;
      if (!why.empty()) {
        ++st.failed;
        st.failures.push_back(why);
      }
    }
    const core::traversal_stats& stats = bfs ? bfs->stats : tc->stats;
    if (traced) {
      account_traced(c, g, st, stats,
                     bfs ? bfs->levels : std::vector<core::bfs_level_stats>{},
                     before, after, wall_ms * 1e6);
    } else if (c.all_reduce(stats.phase.total_ns(), std::plus<>()) != 0 && r0) {
      ++st.checks.untraced_phase_nonzero;
    }
  }
  if (r0) obs::set_metrics_enabled(false);
  c.barrier();
}

/// The graph the loop runs on is set up first; the extra set-ups that feed
/// the set-up median come after the loop and the peak-RSS reading, so the
/// peak is that of a process that sets up once.
template <typename G>
void rank_main(runtime::comm& c, run_state& st) {
  built_graph<G> b;
  setup_once(c, st, b);
  st.local_edges[static_cast<std::size_t>(c.rank())] = b.g->local_edge_count();
  run_loop(c, *b.g, st, b.em.get());
  c.barrier();
  if (c.rank() == 0) st.peak_rss_mb = peak_rss_mb();
  // Small graphs set up in milliseconds: repeat until the set-ups add up
  // to kSetupSeconds (or kMaxSetups) so their median is steady too.
  for (int k = 1;; ++k) {
    int more = 0;
    if (c.rank() == 0) {
      double total = 0;
      for (const double s : st.setup_s) total += s;
      more = k < kMinSetups ||
             (total < kSetupSeconds && k < kMaxSetups);
    }
    if (c.broadcast(more, 0) == 0) break;
    setup_once(c, st, b);
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (the "type 7" definition).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct metric_list {
  std::vector<std::pair<std::string, double>> items;
  void add(std::string name, double v) {
    items.emplace_back(std::move(name), v);
  }
};

std::vector<double> op_times(const run_state& st, bool traced) {
  std::vector<double> out;
  for (const auto& op : st.ops) {
    if (op.traced == traced && !op.warmup) out.push_back(op.ms);
  }
  return out;
}

metric_list end_to_end_metrics(const run_state& st) {
  metric_list m;
  // Each root's median over its measured runs, so a burst of host noise
  // moves a root's time only if it hits most of that root's runs.
  std::size_t roots = 0;
  for (const auto& op : st.ops) roots = std::max(roots, op.root + 1);
  // teps is total edges over total time, not the harmonic mean of per-root
  // rates: a root in a small component (a few edges in a few ms) would
  // pull a harmonic mean down by orders of magnitude.
  std::vector<double> root_ms;
  double edge_sum = 0;
  double ms_sum = 0;
  for (std::size_t k = 0; k < roots; ++k) {
    std::vector<double> times;
    double edges = 0;
    for (const auto& op : st.ops) {
      if (op.traced || op.warmup || op.root != k || op.edges <= 0) continue;
      times.push_back(op.ms);
      edges = op.edges;
    }
    if (times.empty()) continue;
    root_ms.push_back(median(times));
    edge_sum += edges;
    ms_sum += root_ms.back();
  }
  m.add("teps", ratio(edge_sum, ms_sum * 1e-3) / 1e6);
  m.add("op_ms_p50", quantile(root_ms, 0.50));
  m.add("setup_s", median(st.setup_s));
  m.add("peak_rss_mb", st.peak_rss_mb);
  return m;
}

metric_list per_layer_metrics(const run_state& st) {
  const workload_kind kind = st.opt->workload->kind;
  const bool vq = kind != workload_kind::hybrid_bfs_em;
  rank_layers sum{};
  double delivered_max = 0;
  for (const auto& l : st.layers) {
    obs::stats_add(sum.trav, l.trav);
    obs::stats_add(sum.comm, l.comm);
    sum.cache.hits += l.cache.hits;
    sum.cache.misses += l.cache.misses;
    sum.cache.evictions += l.cache.evictions;
    sum.cache.bytes_requested += l.cache.bytes_requested;
    sum.cache.dev_bytes_read += l.cache.dev_bytes_read;
    delivered_max = std::max(delivered_max,
                             static_cast<double>(l.trav.visitors_delivered));
  }
  double edges = 0;
  double ops = 0;
  for (const auto& op : st.ops) {
    if (!op.traced) continue;
    edges += op.edges;
    ops += 1;
  }
  const auto& t = sum.trav;
  const auto& mb = t.mailbox;
  const double p = static_cast<double>(st.layers.size());
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  metric_list m;
  m.add("gen.s", median(st.gen_s));
  m.add("graph.partition_s", median(st.partition_s));
  m.add("graph.store_s", median(st.store_s));
  double edge_max = 0;
  double edge_sum = 0;
  for (const auto e : st.local_edges) {
    edge_max = std::max(edge_max, d(e));
    edge_sum += d(e);
  }
  m.add("graph.edge_imbalance", ratio(edge_max, edge_sum / p));

  m.add("core.vq.pushed_per_edge", vq ? ratio(d(t.visitors_pushed), edges) : 0);
  m.add("core.vq.useful_ratio",
        vq ? ratio(d(t.visitors_executed), d(t.visitors_pushed)) : 0);
  m.add("core.vq.ghost_filtered_frac",
        vq ? ratio(d(t.ghost_filtered), d(t.visitors_pushed)) : 0);
  m.add("core.vq.delivered_imbalance",
        vq ? ratio(delivered_max, d(t.visitors_delivered) / p) : 0);

  m.add("mailbox.records_per_edge",
        ratio(d(mb.records_sent + mb.records_forwarded), edges));
  m.add("mailbox.bytes_per_edge", ratio(d(mb.packet_bytes_sent), edges));
  m.add("mailbox.records_per_packet",
        ratio(d(mb.records_sent + mb.records_forwarded), d(mb.packets_sent)));
  m.add("mailbox.age_flush_frac",
        ratio(d(mb.flushes_by_age), d(mb.flushes_by_age + mb.flushes_by_size)));
  m.add("mailbox.dropped_packets",
        d(mb.packets_dropped_duplicate + mb.packets_rejected));

  m.add("runtime.messages_per_op", ratio(d(sum.comm.messages_sent), ops));
  m.add("runtime.bytes_per_edge", ratio(d(sum.comm.bytes_sent), edges));
  m.add("runtime.term_waves_per_op", ratio(d(st.term_waves), ops));

  m.add("core.frontier.levels", ratio(d(st.levels), ops));
  m.add("core.frontier.bottom_up_levels", ratio(d(st.bottom_up_levels), ops));
  m.add("core.frontier.claims_per_edge", ratio(d(st.claims), edges));

  const auto& cs = sum.cache;
  const double gets = d(cs.hits + cs.misses);
  m.add("storage.cache.gets_per_edge", ratio(gets, edges));
  m.add("storage.cache.hit_rate", ratio(d(cs.hits), gets));
  m.add("storage.cache.read_amp",
        ratio(d(cs.dev_bytes_read), d(cs.bytes_requested)));
  m.add("storage.cache.evictions_per_op", ratio(d(cs.evictions), ops));

  const auto& ph = t.phase;
  m.add("obs.phase.visit_ns_per_edge", ratio(d(ph.visit_ns), edges));
  m.add("obs.phase.scan_ns_per_edge", ratio(d(ph.scan_ns), edges));
  m.add("obs.phase.mbox_pack_ns_per_edge", ratio(d(ph.mbox_pack_ns), edges));
  m.add("obs.phase.mbox_flush_ns_per_edge", ratio(d(ph.mbox_flush_ns), edges));
  m.add("obs.phase.poll_ns_per_edge", ratio(d(ph.poll_ns), edges));
  m.add("obs.phase.term_ns_per_edge", ratio(d(ph.term_ns), edges));
  m.add("obs.phase.io_wait_ns_per_edge", ratio(d(ph.io_wait_ns), edges));
  m.add("obs.phase.idle_ns_per_edge", ratio(d(ph.idle_ns), edges));

  m.add("obs.trace_overhead",
        ratio(quantile(op_times(st, true), 0.5),
              quantile(op_times(st, false), 0.5)));
  return m;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Every observability gate, read back from the library.  The shipped
/// default is everything off except the flight recorder.
std::string gates_json() {
  std::ostringstream g;
  g << "{\"metrics\":" << obs::metrics_on() << ",\"timeseries\":"
    << obs::ts_on() << ",\"trace\":" << obs::trace_on()
    << ",\"comm_matrix\":" << obs::comm_matrix_on()
    << ",\"io_hist\":" << obs::io_hist_on() << ",\"spans\":"
    << obs::spans_on() << ",\"phase\":" << obs::phase_on()
    << ",\"mem\":" << obs::mem_on() << ",\"mem_budget\":"
    << obs::mem_budget() << ",\"flight\":" << obs::flight_on()
    << ",\"metrics_report\":"
    << (obs::metrics_report_path().empty() ? 0 : 1) << "}";
  return g.str();
}

bool gates_at_shipped_defaults() {
  return !obs::metrics_on() && !obs::ts_on() && !obs::trace_on() &&
         !obs::comm_matrix_on() && !obs::io_hist_on() && !obs::spans_on() &&
         !obs::phase_on() && !obs::mem_on() && obs::mem_budget() == 0 &&
         obs::flight_on() && obs::metrics_report_path().empty();
}

constexpr bool kOptimizedBuild =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

constexpr bool kSanitizedBuild =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

int run_benchmark(const options& o) {
  const auto ref = read_reference(o.ref_path);
  if (!ref || (is_bfs(o.workload->kind) && ref->roots.empty())) {
    std::cerr << "sfg_perfbench: no reference answers in '" << o.ref_path
              << "'\n";
    return 2;
  }
  const bool shipped_gates = gates_at_shipped_defaults();
  const std::string gates_at_start = gates_json();

  run_state st;
  st.opt = &o;
  st.ref = &*ref;
  st.layers.resize(static_cast<std::size_t>(o.workload->ranks));
  st.local_edges.resize(static_cast<std::size_t>(o.workload->ranks));
  try {
    runtime::launch(o.workload->ranks, [&](runtime::comm& c) {
      if (o.workload->kind == workload_kind::hybrid_bfs_em) {
        rank_main<external_graph>(c, st);
      } else {
        rank_main<memory_graph>(c, st);
      }
    });
  } catch (const std::exception& e) {
    // A throwing operation poisons the world; count it and stop the loop.
    ++st.failed;
    st.failures.push_back(std::string("exception: ") + e.what());
    if (st.attempted == 0) st.attempted = 1;
  }
  if (!o.spans_path.empty() && o.trace) st.spans.write(o.spans_path);

  const metric_list metrics =
      o.trace ? per_layer_metrics(st) : end_to_end_metrics(st);
  const auto untraced = op_times(st, false);
  const auto traced = op_times(st, true);

  std::ostringstream out;
  out << "{\"attempted\":" << st.attempted << ",\"failed\":" << st.failed
      << ",\"ops_untraced\":" << untraced.size()
      << ",\"ops_traced\":" << traced.size()
      << ",\"setups\":" << st.setup_s.size() << ",\"op_ms\":[";
  for (std::size_t i = 0; i < st.ops.size(); ++i) {
    out << (i == 0 ? "" : ",") << json_number(st.ops[i].ms);
  }
  out << "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.items.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\"" << metrics.items[i].first
        << "\":" << json_number(metrics.items[i].second);
  }
  const auto& ck = st.checks;
  out << "},\"checks\":{\"ok\":" << (ck.ok() ? "true" : "false")
      << ",\"ops_checked\":" << ck.ops_checked
      << ",\"mailbox_unbalanced\":" << ck.mailbox_unbalanced
      << ",\"mailbox_registry_mismatch\":" << ck.mailbox_registry_mismatch
      << ",\"cache_registry_mismatch\":" << ck.cache_registry_mismatch
      << ",\"phase_overrun\":" << ck.phase_overrun
      << ",\"untraced_phase_nonzero\":" << ck.untraced_phase_nonzero
      << ",\"vq_work_on_frontier\":" << ck.vq_work_on_frontier
      << ",\"cache_gets_in_memory\":" << ck.cache_gets_in_memory << "}"
      << ",\"gates\":" << gates_at_start
      << ",\"gates_shipped_default\":" << (shipped_gates ? "true" : "false")
      << ",\"build\":{\"type\":\"" << SFG_PERFBENCH_BUILD_TYPE
      << "\",\"optimized\":" << (kOptimizedBuild ? "true" : "false")
      << ",\"sanitized\":" << (kSanitizedBuild ? "true" : "false")
      << ",\"compiler\":\"" << json_escape(__VERSION__) << "\"}"
      << ",\"p\":" << o.workload->ranks << ",\"scale\":" << o.scale
      << ",\"seed\":" << o.seed << ",\"failures\":[";
  for (std::size_t i = 0; i < st.failures.size() && i < 8; ++i) {
    out << (i == 0 ? "" : ",") << "\"" << json_escape(st.failures[i]) << "\"";
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return st.failed == 0 && ck.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

int usage() {
  std::cerr
      << "usage: sfg_perfbench reference --workload W --seed N [--scale S]\n"
         "       sfg_perfbench run --workload W --seed N --ref FILE\n"
         "                         [--seconds T] [--trace 0|1] [--scale S]\n"
         "                         [--spans FILE]\n"
         "workloads: async-bfs, hybrid-bfs-em, triangles-sw\n";
  return 2;
}

std::optional<options> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  options o;
  o.command = argv[1];
  if (o.command != "reference" && o.command != "run") return std::nullopt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    const auto num = [&]() {
      const double v = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(v >= 0)) {
        throw std::invalid_argument(key);
      }
      return v;
    };
    try {
      if (key == "--workload") {
        for (const auto& w : kWorkloads) {
          if (val == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) return std::nullopt;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--scale") {
        o.scale = static_cast<unsigned>(num());
      } else if (key == "--seconds") {
        o.seconds = num();
      } else if (key == "--trace") {
        o.trace = num() != 0;
      } else if (key == "--ref") {
        o.ref_path = val;
      } else if (key == "--spans") {
        o.spans_path = val;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if ((argc % 2) != 0 || o.workload == nullptr) {
    return std::nullopt;
  }
  if (o.scale == 0) o.scale = o.workload->default_scale;
  if (o.scale > 30) return std::nullopt;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const auto o = parse(argc, argv);
  if (!o) return usage();
  if (o->command == "reference") return run_reference(*o);
  if (!kOptimizedBuild || kSanitizedBuild) {
    std::cerr << "sfg_perfbench: refusing to measure an unoptimized or "
                 "sanitized build\n";
    return 3;
  }
  return run_benchmark(*o);
}
