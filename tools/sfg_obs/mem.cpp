/// \file mem.cpp
/// `sfg_obs mem FILE`: terminal memory-attribution view.  FILE is an
/// sfg-metrics/1 report whose traversal entries carry sfg-mem/1 sections
/// (any SFG_METRICS run).  Renders, for the last
/// traversal with a section:
///   - one stacked bar per rank: each charged subsystem's share of the
///     rank's accounted bytes, with a peak watermark ('|') where the
///     rank's accounted peak sits relative to the widest rank
///   - a per-subsystem legend with current / peak bytes summed over
///     ranks, sorted by peak
///   - the ground-truth line: accounted peak vs sampled RSS growth
///     (the coverage ratio), max-RSS, and the budget if one was armed
///   - the pressure block: current ladder level and how many ok->soft,
///     soft->hard, ->ok transitions fired
///
/// Exit 0 after rendering; 1 on a missing or invalid report or section
/// (CI gates on this).  The live accounted-vs-RSS numbers are
/// `sfg_obs top`'s.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "loader.hpp"
#include "obs/mem.hpp"

namespace sfg::obs_tool {
namespace {

/// One fill glyph per subsystem, in enum order — the bar is a legend key.
constexpr char kFill[] = {'M', 'C', 'Q', 'F', 'B', 'P', 'o', '.'};
static_assert(sizeof(kFill) == obs::kMemSubsystems);

const char* subsystem_name(std::size_t s) {
  return obs::mem_subsystem_name(static_cast<obs::mem_subsystem>(s));
}

/// `field` ("current" or "peak") of subsystem `s` in one sfg-mem/1 row.
double charged(const json& row, std::size_t s, const char* field) {
  return num_or(member(member(row, "subsystems"), subsystem_name(s)), field);
}

void render_rows(const json& rows) {
  constexpr int kBarWidth = 48;
  double scale_max = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    scale_max = std::max({scale_max, num_or(rows.at(r), "accounted_current"),
                          num_or(rows.at(r), "accounted_peak")});
  }
  std::printf("per-rank accounted bytes (bar = current by subsystem, '|' = "
              "peak watermark, scale %s)\n",
              human_bytes(scale_max).c_str());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const json& row = rows.at(r);
    const double peak = num_or(row, "accounted_peak");
    std::string bar(kBarWidth, ' ');
    if (scale_max > 0) {
      // Stack the subsystems left to right; every nonzero share gets at
      // least one cell so small-but-present charges stay visible.
      std::size_t pos = 0;
      for (std::size_t s = 0; s < obs::kMemSubsystems; ++s) {
        const double current = charged(row, s, "current");
        if (current <= 0) continue;
        const int cells =
            std::max(static_cast<int>(current / scale_max * kBarWidth), 1);
        for (int i = 0; i < cells && pos < bar.size(); ++i) bar[pos++] = kFill[s];
      }
      const int mark = std::min(
          kBarWidth - 1, static_cast<int>(peak / scale_max * kBarWidth));
      if (bar[mark] == ' ') bar[mark] = '|';
    }
    const std::int64_t rank = int_at<std::int64_t>(row, "rank").value_or(0);
    std::printf("  rank %3lld [%s] %9s cur / %9s peak\n",
                static_cast<long long>(rank), bar.c_str(),
                human_bytes(num_or(row, "accounted_current")).c_str(),
                human_bytes(peak).c_str());
  }
}

void render_legend(const json& rows) {
  struct line {
    std::size_t s;
    double current;
    double peak;
  };
  std::vector<line> lines;
  for (std::size_t s = 0; s < obs::kMemSubsystems; ++s) {
    double cur = 0, pk = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      cur += charged(rows.at(r), s, "current");
      pk += charged(rows.at(r), s, "peak");
    }
    if (pk > 0) lines.push_back({s, cur, pk});
  }
  std::sort(lines.begin(), lines.end(),
            [](const line& a, const line& b) { return a.peak > b.peak; });
  if (lines.empty()) {
    std::printf("subsystems: nothing charged (all-zero ledger)\n");
    return;
  }
  std::printf("subsystems (all ranks, sorted by peak):\n");
  for (const auto& l : lines) {
    std::printf("  %c %-18s %9s cur / %9s peak\n", kFill[l.s],
                subsystem_name(l.s), human_bytes(l.current).c_str(),
                human_bytes(l.peak).c_str());
  }
}

}  // namespace

int run_mem(const std::string& file) {
  const auto doc = read_metrics(file);
  if (!doc) return 1;
  const json& traversals = *doc->find("traversals");
  // Last traversal with a section: the freshest cumulative snapshot.
  const auto which = last_with(traversals, "mem");
  if (!which) {
    return fail_view(file + ": has no mem section (set SFG_METRICS)");
  }
  const json& mem = *traversals.at(*which).find("mem");
  std::vector<std::string> errors;
  if (!obs::mem_validate(mem, &errors)) {
    fail_view(file + ": mem section is invalid");
    for (const std::string& e : errors) std::cerr << "  " << e << "\n";
    return 1;
  }
  // mem_validate vouched for every field the renderers read.
  const json& rows = *mem.find("rows");
  std::printf("sfg_obs mem — %s, traversal %zu of %zu, %zu rank(s)\n",
              file.c_str(), *which + 1, traversals.size(), rows.size());
  render_rows(rows);
  render_legend(rows);

  const double budget = num_or(mem, "budget");
  std::printf("ground truth: accounted peak %s, rss %s, max-rss %s, "
              "coverage %.0f%%",
              human_bytes(num_or(mem, "accounted_peak")).c_str(),
              human_bytes(num_or(mem, "rss_bytes")).c_str(),
              human_bytes(num_or(mem, "max_rss_bytes")).c_str(),
              num_or(mem, "coverage") * 100.0);
  if (budget > 0) {
    std::printf(", budget %s", human_bytes(budget).c_str());
  } else {
    std::printf(", no budget armed");
  }
  std::printf("\n");

  const json& pressure = *mem.find("pressure");
  std::printf("pressure: level %s, %.0f ok->soft, %.0f ->hard, %.0f ->ok\n",
              pressure.find("level")->as_string().c_str(),
              num_or(pressure, "to_soft"), num_or(pressure, "to_hard"),
              num_or(pressure, "to_ok"));
  std::fflush(stdout);
  return 0;
}

}  // namespace sfg::obs_tool
