/// \file sfg_cli.cpp
/// Command-line driver for the sfg library: generate synthetic graphs to
/// edge-list files, inspect them, and run any of the distributed
/// algorithms over them.
///
///   sfg_cli generate --model rmat|pa|sw --scale S [--rewire R]
///           [--seed N] --out FILE [--text]
///   sfg_cli info FILE
///   sfg_cli bfs FILE [--ranks P] [--source GID] [--ghosts K] [--validate]
///   sfg_cli kcore FILE --k K [--ranks P]
///   sfg_cli triangles FILE [--ranks P] [--approx SAMPLES]
///   sfg_cli components FILE [--ranks P]
///   sfg_cli pagerank FILE [--ranks P] [--eps E]
///
/// Every algorithm command also accepts the placement flags:
///   --partitioner=NAME   edge placement strategy: edge_list (default,
///                        the paper's sorted-chunk scheme), dbh, hdrf,
///                        or sne (graph/partitioner.hpp)
///   --hdrf-lambda L      HDRF balance knob (only with --partitioner=hdrf)
/// and the observability flags:
///   --json-report PATH   write a machine-readable run report (metrics
///                        registry snapshot + run parameters) after the run
///   --trace PATH         record a Chrome-trace/Perfetto timeline of the
///                        run (spans per rank: traversal, mailbox flushes,
///                        termination waves, cache I/O)
/// equivalent to the SFG_METRICS / SFG_TRACE environment variables.
///
/// FILEs ending in .txt are treated as text edge lists, anything else as
/// the packed binary format (io/edge_list_io.hpp).
///
/// Exit status: 0 on success, 1 when the run fails (a file that cannot be
/// read, a graph with no vertex, a --source that names no vertex, a failed
/// --validate), 2 on a malformed command line.
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "core/bfs_hybrid.hpp"
#include "core/bfs_validate.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/pagerank.hpp"
#include "core/triangles.hpp"
#include "core/wedge_sampling.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partitioner.hpp"
#include "io/edge_list_io.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "runtime/runtime.hpp"
#include "storage/block_device.hpp"
#include "storage/page_cache.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

struct args_map {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  [[nodiscard]] std::string opt(const std::string& key,
                                const std::string& def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  [[nodiscard]] std::uint64_t opt_u64(const std::string& key,
                                      std::uint64_t def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : std::stoull(it->second);
  }
  [[nodiscard]] double opt_f64(const std::string& key, double def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : std::stod(it->second);
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return flags.contains(key);
  }
};

/// What a command accepts: value-taking options (--key VALUE / --key=VALUE)
/// and boolean flags.  Parsing against a spec makes unknown or malformed
/// arguments a hard error (usage + exit 2) instead of silently-accepted
/// noise, and lets flags never swallow a following positional ("--em
/// file.bin" keeps file.bin as the input path).
struct arg_spec {
  std::set<std::string> options;
  std::set<std::string> flags;
};

/// Options whose values must parse fully as numbers; checked at parse
/// time so opt_u64/opt_f64 (std::stoull/std::stod) can never throw on
/// user input.
const std::set<std::string> kU64Options = {
    "scale", "seed", "ranks", "source", "ghosts",
    "k",     "approx", "em-frames", "em-page", "mem-budget"};
const std::set<std::string> kF64Options = {"rewire", "hdrf-lambda", "eps"};

bool parses_as_u64(const std::string& s) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  (void)std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

bool parses_as_f64(const std::string& s) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  return errno == 0 && end != nullptr && *end == '\0';
}

std::optional<args_map> parse_args(int argc, char** argv, int first,
                                   const arg_spec& spec) {
  args_map out;
  const auto bad = [](const std::string& why) -> std::optional<args_map> {
    std::cerr << "sfg_cli: " << why << "\n";
    return std::nullopt;
  };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      out.positional.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    }
    if (key.empty()) return bad("malformed option '" + a + "'");
    if (spec.flags.contains(key)) {
      if (has_value) return bad("flag --" + key + " does not take a value");
      out.flags[key] = true;
      continue;
    }
    if (!spec.options.contains(key)) {
      return bad("unknown option --" + key);
    }
    if (!has_value) {
      if (i + 1 >= argc) return bad("--" + key + " requires a value");
      value = argv[++i];
    }
    if (kU64Options.contains(key) && !parses_as_u64(value)) {
      return bad("--" + key + " expects a non-negative integer, got '" +
                 value + "'");
    }
    if (kF64Options.contains(key) && !parses_as_f64(value)) {
      return bad("--" + key + " expects a number, got '" + value + "'");
    }
    out.options[key] = value;
  }
  return out;
}

bool is_text_path(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".txt";
}

std::vector<sfg::gen::edge64> load_edges(const std::string& path) {
  return is_text_path(path) ? sfg::io::read_text_edges(path)
                            : sfg::io::read_binary_edges(path);
}

std::vector<sfg::gen::edge64> load_edges_distributed(
    sfg::runtime::comm& c, const std::string& path) {
  return is_text_path(path)
             ? sfg::io::read_text_edges_distributed(c, path)
             : sfg::io::read_binary_edges_distributed(c, path);
}

int usage() {
  std::cerr
      << "usage: sfg_cli <command> [args]\n"
         "  generate --model rmat|pa|sw --scale S [--rewire R] [--seed N]\n"
         "           --out FILE [--text]\n"
         "  info FILE\n"
         "  bfs FILE [--ranks P] [--source GID] [--ghosts K] [--validate]\n"
         "      [--bfs=async|topdown|bottomup|hybrid]  traversal mode:\n"
         "      async (default) is the paper's visitor queue; the others\n"
         "      are level-synchronous with an explicit frontier (hybrid\n"
         "      switches direction on Beamer's alpha/beta heuristic)\n"
         "  kcore FILE --k K [--ranks P]\n"
         "  triangles FILE [--ranks P] [--approx SAMPLES]\n"
         "  components FILE [--ranks P]\n"
         "  pagerank FILE [--ranks P] [--eps E]\n"
         "algorithm commands also accept:\n"
         "  --partitioner=NAME   edge placement: edge_list (default), dbh,\n"
         "                       hdrf, or sne\n"
         "  --hdrf-lambda L      HDRF balance knob (default 1.0; larger =\n"
         "                       more balance, more replication)\n"
         "  --json-report PATH   write metrics run report when done\n"
         "  --trace PATH         write Chrome-trace/Perfetto timeline\n"
         "  --em                 external-memory mode: adjacency on a\n"
         "                       per-rank block device behind the page\n"
         "                       cache (reports I/O attribution)\n"
         "  --em-frames N        page-cache frames per rank (default 64)\n"
         "  --em-page B          page size in bytes (default 512)\n"
         "  --mem-budget BYTES   soft memory budget: arms the pressure\n"
         "                       ladder and per-subsystem attribution\n"
         "                       (mirrors SFG_MEM_BUDGET)\n";
  return 2;
}

int cmd_generate(const args_map& a) {
  const std::string model = a.opt("model", "rmat");
  const auto scale = static_cast<unsigned>(a.opt_u64("scale", 14));
  const double rewire = a.opt_f64("rewire", 0.0);
  const std::uint64_t seed = a.opt_u64("seed", 1);
  const std::string out = a.opt("out", "");
  if (out.empty()) return usage();

  std::vector<sfg::gen::edge64> edges;
  if (model == "rmat") {
    sfg::gen::rmat_config cfg{.scale = scale, .edge_factor = 16, .seed = seed};
    edges = sfg::gen::rmat_slice(cfg, 0, cfg.num_edges());
  } else if (model == "pa") {
    sfg::gen::pa_config cfg{.num_vertices = std::uint64_t{1} << scale,
                            .edges_per_vertex = 8,
                            .rewire = rewire,
                            .seed = seed};
    edges = sfg::gen::pa_slice(cfg, 0, cfg.num_edges());
  } else if (model == "sw") {
    sfg::gen::sw_config cfg{.num_vertices = std::uint64_t{1} << scale,
                            .degree = 16,
                            .rewire = rewire,
                            .seed = seed};
    edges = sfg::gen::sw_slice(cfg, 0, cfg.num_edges());
  } else {
    return usage();
  }
  if (a.flag("text") || is_text_path(out)) {
    sfg::io::write_text_edges(out, edges);
  } else {
    sfg::io::write_binary_edges(out, edges);
  }
  std::cout << "wrote " << edges.size() << " edges (" << model << ", scale "
            << scale << ") to " << out << "\n";
  return 0;
}

int cmd_info(const args_map& a) {
  if (a.positional.empty()) return usage();
  const auto edges = load_edges(a.positional[0]);
  std::map<std::uint64_t, std::uint64_t> degree;
  std::uint64_t max_v = 0;
  std::uint64_t self_loops = 0;
  for (const auto& e : edges) {
    ++degree[e.src];
    ++degree[e.dst];
    max_v = std::max({max_v, e.src, e.dst});
    if (e.src == e.dst) ++self_loops;
  }
  sfg::util::log2_histogram hist;
  std::uint64_t max_deg = 0;
  for (const auto& [v, d] : degree) {
    hist.add(d);
    max_deg = std::max(max_deg, d);
  }
  std::cout << "edges:       " << edges.size() << "\n"
            << "vertices:    " << degree.size() << " touched (ids up to "
            << max_v << ")\n"
            << "self loops:  " << self_loops << "\n"
            << "max degree:  " << max_deg << "\n"
            << "degree histogram (log2 buckets):\n"
            << hist.to_string();
  return 0;
}

/// The CLI side of the observability switches: --json-report / --trace
/// arm the registry / trace buffer before the run and serialize them
/// after, mirroring the SFG_METRICS / SFG_TRACE environment variables.
struct obs_opts {
  std::string report_path;
  std::string trace_path;

  explicit obs_opts(const args_map& a)
      : report_path(a.opt("json-report", "")),
        trace_path(a.opt("trace", "")) {
    if (!report_path.empty()) sfg::obs::set_metrics_enabled(true);
    if (!trace_path.empty()) sfg::obs::set_trace_enabled(true);
  }

  /// Write whatever was requested; false if a report could not be written.
  bool finish(const std::string& command, const args_map& a,
              const sfg::obs::json* cache_heat = nullptr) const {
    if (!trace_path.empty()) sfg::obs::write_chrome_trace(trace_path);
    if (report_path.empty()) return true;
    sfg::obs::run_report rep(command);
    rep.add_param("file", sfg::obs::json(a.positional.empty()
                                             ? std::string()
                                             : a.positional[0]));
    for (const auto& [key, value] : a.options) {
      rep.add_param(key, sfg::obs::json(value));
    }
    if (cache_heat != nullptr && cache_heat->is_object()) {
      rep.add_section("cache_heat", *cache_heat);
    }
    return rep.write(report_path);
  }
};

template <typename Fn>
int with_graph(const args_map& a, const char* command, std::uint32_t ghosts,
               Fn&& fn) {
  if (a.positional.empty()) return usage();
  const auto path = a.positional[0];
  const int p = static_cast<int>(a.opt_u64("ranks", 4));
  const auto kind =
      sfg::graph::parse_partitioner(a.opt("partitioner", "edge_list"));
  if (!kind.has_value()) {
    std::cerr << "unknown --partitioner '" << a.opt("partitioner", "")
              << "' (expected edge_list, dbh, hdrf, or sne)\n";
    return 2;
  }
  const bool em = a.flag("em");
  const auto em_frames = static_cast<std::size_t>(a.opt_u64("em-frames", 64));
  const auto em_page = static_cast<std::size_t>(a.opt_u64("em-page", 512));
  if (a.options.contains("mem-budget")) {
    // Mirrors SFG_MEM_BUDGET: a nonzero budget also turns attribution on.
    sfg::obs::set_mem_budget(a.opt_u64("mem-budget", 0));
  }
  const obs_opts obs(a);
  int rc = 0;
  bool loaded = true;
  sfg::obs::json cache_heat;
  sfg::runtime::launch(p, [&](sfg::runtime::comm& c) {
    // A bad input file is the user's error, not a rank fault: runtime::
    // launch would dump a flight record for it.  The readers call no
    // collective, so every rank reaches the agreement below.
    std::vector<sfg::gen::edge64> edges;
    std::string load_error;
    try {
      edges = load_edges_distributed(c, path);
    } catch (const std::exception& e) {
      load_error = e.what();
    }
    const int bad_rank = c.all_reduce(load_error.empty() ? -1 : c.rank(),
                                      [](int x, int y) { return std::max(x, y); });
    if (bad_rank >= 0) {
      if (c.rank() == bad_rank) std::cerr << "sfg_cli: " << load_error << "\n";
      if (c.rank() == 0) loaded = false;
      return;
    }
    sfg::graph::graph_build_config gcfg{.num_ghosts = ghosts};
    gcfg.partitioner.kind = *kind;
    gcfg.partitioner.hdrf_lambda = a.opt_f64("hdrf-lambda", 1.0);
    int mine = 0;
    if (em) {
      // Per-rank device + page cache, like the paper's node-local NVRAM;
      // a deliberately small frame budget keeps the miss path exercised.
      sfg::storage::memory_device dev;
      sfg::storage::page_cache cache(dev, {em_page, em_frames});
      auto g =
          sfg::graph::build_external_graph(c, std::move(edges), gcfg, dev,
                                           cache);
      mine = fn(c, g);
      if (c.rank() == 0) {
        // Rank 0's frame heat stands in for all ranks (symmetric caches);
        // lands in both report flavors so `sfg_obs heat` can render it.
        cache_heat = cache.heat_json(16);
        sfg::obs::set_metrics_report_section("cache_heat", cache_heat);
      }
    } else {
      auto g = sfg::graph::build_in_memory_graph(c, std::move(edges), gcfg);
      mine = fn(c, g);
    }
    // Ranks are threads: reduce to the worst exit code and store it once.
    const int worst =
        c.all_reduce(mine, [](int x, int y) { return std::max(x, y); });
    if (c.rank() == 0) rc = worst;
  });
  if (!loaded) return 1;  // nothing ran, so there is nothing to report
  if (!obs.finish(command, a, em ? &cache_heat : nullptr) && rc == 0) rc = 1;
  return rc;
}

int cmd_bfs(const args_map& a) {
  const auto mode = sfg::core::parse_bfs_mode(a.opt("bfs", "async"));
  if (!mode.has_value()) {
    std::cerr << "unknown --bfs '" << a.opt("bfs", "")
              << "' (expected async, topdown, bottomup, or hybrid)\n";
    return 2;
  }
  return with_graph(a, "bfs", static_cast<std::uint32_t>(a.opt_u64("ghosts", 256)),
                    [&](sfg::runtime::comm& c, auto& g) {
    if (g.total_vertices() == 0) {
      if (c.rank() == 0) {
        std::cerr << "sfg_cli: " << a.positional[0] << " has no vertex\n";
      }
      return 1;
    }
    auto source = g.locate(a.opt_u64("source", 0));
    if (!source.valid() && a.options.contains("source")) {
      if (c.rank() == 0) {
        std::cerr << "sfg_cli: --source " << a.opt("source", "")
                  << " names no vertex of the graph\n";
      }
      return 1;
    }
    if (!source.valid()) {
      // No --source, and vertex 0 does not exist: start from the
      // max-degree vertex (collective choice).
      struct cand {
        std::uint64_t degree;
        std::uint64_t inv_bits;
      };
      cand best{0, 0};
      for (std::size_t s = 0; s < g.num_slots(); ++s) {
        if (!g.is_master(s)) continue;
        const cand x{g.degree_of(s), ~g.locator_of(s).bits()};
        if (x.degree > best.degree ||
            (x.degree == best.degree && x.inv_bits > best.inv_bits)) {
          best = x;
        }
      }
      const auto w = c.all_reduce(best, [](cand l, cand r) {
        if (l.degree != r.degree) return l.degree > r.degree ? l : r;
        return l.inv_bits > r.inv_bits ? l : r;
      });
      source = sfg::graph::vertex_locator::from_bits(~w.inv_bits);
    }
    sfg::util::timer t;
    sfg::core::hybrid_bfs_config bcfg;
    bcfg.mode = *mode;
    auto bfs = sfg::core::run_bfs_mode(g, source, bcfg);
    const double secs = t.elapsed_s();
    std::uint64_t reached = 0;
    std::uint64_t traversed = 0;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (g.is_master(s) && bfs.state.local(s).reached()) {
        ++reached;
        traversed += g.degree_of(s);
      }
    }
    reached = c.all_reduce(reached, std::plus<>());
    traversed = c.all_reduce(traversed, std::plus<>()) / 2;
    int rc = 0;
    if (c.rank() == 0) {
      std::cout << "bfs[" << sfg::core::bfs_mode_name(*mode) << "]: reached "
                << reached << " of " << g.total_vertices()
                << " vertices in " << secs << " s ("
                << (secs > 0 ? static_cast<double>(traversed) / secs / 1e6
                             : 0)
                << " MTEPS)\n";
      if (*mode != sfg::core::bfs_mode::async) {
        std::cout << "levels: " << bfs.levels.size()
                  << ", direction switch at "
                  << bfs.direction_switch_level << "\n";
      }
    }
    if (a.flag("validate")) {
      const auto v = sfg::core::validate_bfs(g, source, bfs.state, {});
      if (c.rank() == 0) {
        std::cout << "validation: " << (v.valid ? "PASSED" : "FAILED")
                  << " (" << v.tree_edges_found << "/"
                  << v.tree_edges_expected << " tree edges)\n";
      }
      if (!v.valid) rc = 1;
    }
    return rc;
  });
}

int cmd_kcore(const args_map& a) {
  const auto k = static_cast<std::uint32_t>(a.opt_u64("k", 2));
  return with_graph(a, "kcore", 0, [&](sfg::runtime::comm& c, auto& g) {
    sfg::util::timer t;
    auto result = sfg::core::run_kcore(g, k, {});
    if (c.rank() == 0) {
      std::cout << k << "-core: " << result.core_size << " of "
                << g.total_vertices() << " vertices (" << t.elapsed_s()
                << " s)\n";
    }
    return 0;
  });
}

int cmd_triangles(const args_map& a) {
  const auto approx = a.opt_u64("approx", 0);
  return with_graph(a, "triangles", 0, [&](sfg::runtime::comm& c, auto& g) {
    sfg::util::timer t;
    if (approx > 0) {
      const auto est = sfg::core::approx_triangle_count(g, approx, 7);
      if (c.rank() == 0) {
        std::cout << "triangles ~ " << est.estimated_triangles << " ("
                  << est.samples << " wedge samples, " << t.elapsed_s()
                  << " s)\n";
      }
    } else {
      const auto exact = sfg::core::run_triangle_count(g, {});
      if (c.rank() == 0) {
        std::cout << "triangles = " << exact.total_triangles << " ("
                  << t.elapsed_s() << " s)\n";
      }
    }
    return 0;
  });
}

int cmd_components(const args_map& a) {
  return with_graph(a, "components", 64, [&](sfg::runtime::comm& c, auto& g) {
    sfg::util::timer t;
    auto result = sfg::core::run_connected_components(g, {});
    if (c.rank() == 0) {
      std::cout << "components: " << result.num_components << " ("
                << t.elapsed_s() << " s)\n";
    }
    return 0;
  });
}

int cmd_pagerank(const args_map& a) {
  const double eps = a.opt_f64("eps", 1e-6);
  return with_graph(a, "pagerank", 0, [&](sfg::runtime::comm& c, auto& g) {
    sfg::util::timer t;
    auto result = sfg::core::run_pagerank(g, 0.85, eps, {});
    // Top-5 by rank (gathered).
    struct kv {
      double rank;
      std::uint64_t gid;
    };
    std::vector<kv> mine;
    for (std::size_t s = 0; s < g.num_slots(); ++s) {
      if (g.is_master(s)) {
        mine.push_back({result.state.local(s).rank, g.global_id_of(s)});
      }
    }
    auto all = c.all_gatherv(std::span<const kv>(mine), nullptr);
    std::sort(all.begin(), all.end(),
              [](const kv& x, const kv& y) { return x.rank > y.rank; });
    if (c.rank() == 0) {
      std::cout << "pagerank: total mass " << result.total_mass << " / "
                << g.total_vertices() << " (" << t.elapsed_s() << " s)\n";
      for (std::size_t i = 0; i < std::min<std::size_t>(5, all.size());
           ++i) {
        std::cout << "  #" << i + 1 << "  vertex " << all[i].gid
                  << "  rank " << all[i].rank << "\n";
      }
    }
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // Every algorithm command shares the placement + observability +
  // external-memory surface; each adds its own knobs on top.
  arg_spec spec{{"ranks", "partitioner", "hdrf-lambda", "json-report",
                 "trace", "em-frames", "em-page", "mem-budget"},
                {"em"}};
  if (cmd == "generate") {
    spec = {{"model", "scale", "rewire", "seed", "out"}, {"text"}};
  } else if (cmd == "info") {
    spec = {{}, {}};
  } else if (cmd == "bfs") {
    spec.options.insert({"source", "ghosts", "bfs"});
    spec.flags.insert("validate");
  } else if (cmd == "kcore") {
    spec.options.insert("k");
  } else if (cmd == "triangles") {
    spec.options.insert("approx");
  } else if (cmd == "components" || cmd == "pagerank") {
    if (cmd == "pagerank") spec.options.insert("eps");
  } else {
    return usage();
  }
  const auto a = parse_args(argc, argv, 2, spec);
  if (!a) return usage();
  // An unreadable file in generate/info, or a rank's fault rethrown by
  // runtime::launch, reaches here.
  try {
    if (cmd == "generate") return cmd_generate(*a);
    if (cmd == "info") return cmd_info(*a);
    if (cmd == "bfs") return cmd_bfs(*a);
    if (cmd == "kcore") return cmd_kcore(*a);
    if (cmd == "triangles") return cmd_triangles(*a);
    if (cmd == "components") return cmd_components(*a);
    return cmd_pagerank(*a);
  } catch (const std::exception& e) {
    std::cerr << "sfg_cli: " << e.what() << "\n";
    return 1;
  }
}
