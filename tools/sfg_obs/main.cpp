/// \file main.cpp
/// sfg_obs — the one observability tool: four lenses on a run (`top`,
/// `heat`, `mem`, `why`) and the validator that gates CI on its artifacts
/// (`check`).  usage() below lists the forms; each subcommand's file
/// documents its output.  Exit status: 0 on success, 1 when a source is
/// missing, malformed or fails validation, 2 on a usage error.
#include <charconv>
#include <cstring>
#include <iostream>
#include <string>

#include "loader.hpp"
#include "obs/timeseries.hpp"

namespace sfg::obs_tool {

int usage() {
  std::cerr << "usage: sfg_obs top [--dir DIR] [--interval MS] [--once]\n"
               "       sfg_obs heat FILE [--top N]\n"
               "       sfg_obs mem FILE\n"
               "       sfg_obs why [--json] [--traversal N] FILE\n"
               "       sfg_obs check [--bench|--report|--trace|--flight|"
               "--timeseries|--comm-matrix|\n"
               "                      --bfs-levels|--critpath|--mem|--all "
               "FILE]...\n"
               "FILE is an SFG_METRICS report; top reads the SFG_TS_DIR "
               "streams.\n";
  return 2;
}

/// A whole positive decimal integer, as sfg_cli requires of its counts.
static bool parse_positive(const char* s, std::size_t& out) {
  const char* end = s + std::strlen(s);
  std::size_t v = 0;
  const auto r = std::from_chars(s, end, v);
  if (r.ec != std::errc{} || r.ptr != end || v == 0) return false;
  out = v;
  return true;
}

}  // namespace sfg::obs_tool

int main(int argc, char** argv) {
  using namespace sfg::obs_tool;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "check") return run_check(argc - 2, argv + 2);
  if (cmd != "top" && cmd != "heat" && cmd != "mem" && cmd != "why") {
    return usage();
  }
  std::string file;
  std::string dir = sfg::obs::ts_dir();
  std::size_t interval_ms = 500;
  std::size_t top_n = 8;
  std::size_t traversal = 0;
  bool once = false;
  bool as_json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    bool ok = true;
    if (cmd == "top" && a == "--once") {
      once = true;
    } else if (cmd == "top" && a == "--dir" && has_value) {
      dir = argv[++i];
    } else if (cmd == "top" && a == "--interval" && has_value) {
      ok = parse_positive(argv[++i], interval_ms);
    } else if (cmd == "heat" && a == "--top" && has_value) {
      ok = parse_positive(argv[++i], top_n);
    } else if (cmd == "why" && a == "--json") {
      as_json = true;
    } else if (cmd == "why" && a == "--traversal" && has_value) {
      ok = parse_positive(argv[++i], traversal);
    } else {
      ok = cmd != "top" && file.empty() && !a.empty() && a[0] != '-';
      file = a;
    }
    if (!ok) return usage();
  }
  if (cmd == "top") return run_top(dir, interval_ms, once);
  if (file.empty()) return usage();
  if (cmd == "heat") return run_heat(file, top_n);
  if (cmd == "mem") return run_mem(file);
  return run_why(file, as_json, traversal);
}
