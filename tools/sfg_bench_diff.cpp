/// \file sfg_bench_diff.cpp
/// Perf-regression gate over sfg-bench-report/1 directories.
///
///   sfg_bench_diff --baseline DIR --current DIR [--max-regress PCT]
///                  [--min-speedup NAME=FACTOR]... [--format=table|md]
///
/// For every BENCH_*.json in the baseline directory, the same-named file
/// must exist in the current directory.  Within each pair, every table
/// whose header row contains "benchmark" and "ns_per_op" is compared row
/// by row (matched on the benchmark name):
///
///   - a row whose current ns_per_op exceeds baseline * (1 + PCT/100)
///     is a regression (default PCT: 25),
///   - a baseline row missing from the current report is a failure
///     (a silently dropped bench must not pass the gate),
///   - --min-speedup NAME=FACTOR additionally requires
///     baseline/current >= FACTOR for that row (used to assert the
///     speedups a PR claims, e.g. queue/push_pop/bfs=1.3).
///
/// Prints a per-row table (baseline ns, current ns, speedup) and exits 0
/// only if every check passes.  --format=md renders the same rows as a
/// GitHub-flavored markdown pipe table instead, so CI can append the
/// output to $GITHUB_STEP_SUMMARY; the exit semantics are unchanged.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace {

using sfg::obs::json;
namespace fs = std::filesystem;

int g_failures = 0;

void fail(const std::string& why) {
  std::cerr << "sfg_bench_diff: FAIL: " << why << "\n";
  ++g_failures;
}

std::optional<json> load(const fs::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return json::parse(ss.str());
}

/// benchmark-name -> ns_per_op, over every "micro"-shaped table in a
/// bench report (headers contain "benchmark" and "ns_per_op").  A row
/// without a string name and a numeric time in those columns fails the
/// gate instead of being read.
std::map<std::string, double> extract_rows(const json& doc,
                                           const std::string& file) {
  std::map<std::string, double> out;
  const json* tables = doc.find("tables");
  if (tables == nullptr || !tables->is_object()) return out;
  for (const auto& [tname, t] : tables->items()) {
    const json* headers = t.find("headers");
    const json* rows = t.find("rows");
    if (headers == nullptr || rows == nullptr || !headers->is_array() ||
        !rows->is_array()) {
      continue;
    }
    std::optional<std::size_t> name_col;
    std::optional<std::size_t> ns_col;
    for (std::size_t i = 0; i < headers->size(); ++i) {
      const json& h = headers->at(i);
      if (!h.is_string()) continue;
      if (h.as_string() == "benchmark") name_col = i;
      if (h.as_string() == "ns_per_op") ns_col = i;
    }
    if (!name_col || !ns_col) continue;
    for (std::size_t r = 0; r < rows->size(); ++r) {
      const json& row = rows->at(r);
      const bool ok = row.is_array() &&
                      row.size() > std::max(*name_col, *ns_col) &&
                      row.at(*name_col).is_string() &&
                      row.at(*ns_col).is_number();
      if (!ok) {
        fail(file + ": table \"" + tname + "\" row " + std::to_string(r) +
             " has no string benchmark and numeric ns_per_op");
        continue;
      }
      out[row.at(*name_col).as_string()] = row.at(*ns_col).as_double();
    }
  }
  return out;
}

int usage() {
  std::cerr << "usage: sfg_bench_diff --baseline DIR --current DIR "
               "[--max-regress PCT] [--min-speedup NAME=FACTOR]... "
               "[--format=table|md]\n";
  return 2;
}

struct diff_row {
  std::string name;
  double base_ns;
  double cur_ns;
  double speedup;
};

void print_table(const std::vector<diff_row>& rows) {
  sfg::util::table out({"benchmark", "baseline_ns", "current_ns", "speedup"});
  for (const auto& r : rows) {
    out.row().add(r.name).add(r.base_ns, 2).add(r.cur_ns, 2).add(r.speedup, 3);
  }
  out.print(std::cout);
}

void print_markdown(const std::vector<diff_row>& rows) {
  std::cout << "| benchmark | baseline_ns | current_ns | speedup |\n"
               "|---|---:|---:|---:|\n";
  char buf[256];
  for (const auto& r : rows) {
    std::snprintf(buf, sizeof buf, "| %s | %.2f | %.2f | %.3f |\n",
                  r.name.c_str(), r.base_ns, r.cur_ns, r.speedup);
    std::cout << buf;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir;
  std::string current_dir;
  double max_regress_pct = 25.0;
  std::string format = "table";
  std::map<std::string, double> min_speedup;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--format" || a.rfind("--format=", 0) == 0) {
      if (a == "--format") {
        const char* v = next();
        if (v == nullptr) return usage();
        format = v;
      } else {
        format = a.substr(std::string("--format=").size());
      }
      if (format != "table" && format != "md") return usage();
    } else if (a == "--baseline") {
      const char* v = next();
      if (v == nullptr) return usage();
      baseline_dir = v;
    } else if (a == "--current") {
      const char* v = next();
      if (v == nullptr) return usage();
      current_dir = v;
    } else if (a == "--max-regress") {
      const char* v = next();
      if (v == nullptr) return usage();
      max_regress_pct = std::strtod(v, nullptr);
    } else if (a == "--min-speedup") {
      const char* v = next();
      if (v == nullptr) return usage();
      const std::string spec(v);
      const auto eq = spec.rfind('=');
      if (eq == std::string::npos) return usage();
      min_speedup[spec.substr(0, eq)] =
          std::strtod(spec.c_str() + eq + 1, nullptr);
    } else {
      return usage();
    }
  }
  if (baseline_dir.empty() || current_dir.empty()) return usage();
  if (!fs::is_directory(baseline_dir)) {
    fail("baseline dir not found: " + baseline_dir);
    return 1;
  }

  std::vector<diff_row> out_rows;
  std::size_t reports = 0;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(baseline_dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && e.path().extension() == ".json") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& base_path : files) {
    const fs::path cur_path = fs::path(current_dir) / base_path.filename();
    const auto base = load(base_path);
    if (!base) {
      fail("cannot parse baseline " + base_path.string());
      continue;
    }
    const auto cur = load(cur_path);
    if (!cur) {
      fail("missing/unparsable current report " + cur_path.string());
      continue;
    }
    ++reports;
    const auto base_rows = extract_rows(*base, base_path.string());
    auto cur_rows = extract_rows(*cur, cur_path.string());
    for (const auto& [name, base_ns] : base_rows) {
      const auto it = cur_rows.find(name);
      if (it == cur_rows.end()) {
        fail(name + ": present in baseline, missing from current report");
        continue;
      }
      const double cur_ns = it->second;
      const double speedup = cur_ns > 0 ? base_ns / cur_ns : 0.0;
      out_rows.push_back({name, base_ns, cur_ns, speedup});
      if (cur_ns > base_ns * (1.0 + max_regress_pct / 100.0)) {
        fail(name + ": regressed " +
             std::to_string((cur_ns / base_ns - 1.0) * 100.0) + "% (limit " +
             std::to_string(max_regress_pct) + "%)");
      }
      if (const auto ms = min_speedup.find(name); ms != min_speedup.end()) {
        if (speedup < ms->second) {
          fail(name + ": speedup " + std::to_string(speedup) + "x below " +
               "required " + std::to_string(ms->second) + "x");
        }
        min_speedup.erase(ms);
      }
    }
  }
  for (const auto& [name, factor] : min_speedup) {
    fail("--min-speedup " + name + "=" + std::to_string(factor) +
         ": benchmark not found in any report pair");
  }
  if (format == "md") {
    print_markdown(out_rows);
  } else {
    print_table(out_rows);
  }
  if (files.empty()) fail("no BENCH_*.json reports found in " + baseline_dir);
  (void)reports;
  if (g_failures == 0) {
    std::cout << "sfg_bench_diff: " << reports << " report(s) OK\n";
    return 0;
  }
  return 1;
}
