/// \file heat.cpp
/// `sfg_obs heat FILE [--top N]`: terminal heat-map for data movement.
/// FILE is an sfg-metrics/1 report whose traversal entries carry
/// sfg-comm-matrix/1 sections (any SFG_METRICS run, as the 4-rank CI BFS
/// produces).  Renders, for the last traversal with a
/// matrix:
///   - the rank x rank sent-bytes matrix as a glyph-ramp heat grid,
///     flagging the hottest origin->dest pair
///   - enqueue->deliver latency quantiles per rank (sampled, log2)
///   - page-cache amplification from the registry snapshot: device
///     bytes read vs caller bytes requested, plus read/fault latency
///     quantiles
///   - the N (default 8) hottest frames when the report has a
///     "cache_heat" section (page_cache::heat_json)
///
/// Exit 0 after rendering; 1 on a missing, invalid or matrix-less report
/// (CI gates on this).  The live byte rates are `sfg_obs top`'s.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "loader.hpp"

namespace sfg::obs_tool {
namespace {

/// Ten-step intensity ramp; index 0 is "no traffic".
constexpr const char* kRamp = " .:-=+*#%@";

void render_matrix(const sent_grid& g) {
  const auto& m = g.bytes;
  const std::size_t n = m.size();
  std::uint64_t max_v = 0;
  std::uint64_t total = 0;
  for (const auto& row : m) {
    for (const std::uint64_t v : row) {
      max_v = std::max(max_v, v);
      total += v;
    }
  }
  std::printf("rank x rank sent bytes (row = origin, col = final dest, "
              "total %s, cell max %s)\n",
              human_bytes(static_cast<double>(total)).c_str(),
              human_bytes(static_cast<double>(max_v)).c_str());
  std::printf("      ");
  for (std::size_t d = 0; d < n; ++d) std::printf("%2zu", d % 100);
  std::printf("\n");
  for (std::size_t o = 0; o < n; ++o) {
    std::printf("  %3zu ", o);
    for (std::size_t d = 0; d < n; ++d) {
      char g = ' ';
      if (max_v > 0 && m[o][d] > 0) {
        const std::size_t level = 1 + static_cast<std::size_t>(
                                          static_cast<double>(m[o][d]) /
                                          static_cast<double>(max_v) * 8.0);
        g = kRamp[std::min<std::size_t>(level, 9)];
      }
      std::printf(" %c", g);
    }
    std::printf("\n");
  }
  if (g.hot_bytes > 0) {
    std::printf("hottest pair: rank %zu -> rank %zu, %s\n", g.hot_src,
                g.hot_dst, human_bytes(static_cast<double>(g.hot_bytes)).c_str());
  } else {
    std::printf("hottest pair: none (all off-diagonal traffic is zero)\n");
  }
}

void render_latency(const json& rows) {
  double count = 0;
  double p50_max = 0, p90_max = 0, p99_max = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const json& h = member(rows.at(r), "latency_us");
    count += num_or(h, "count");
    p50_max = std::max(p50_max, num_or(h, "p50"));
    p90_max = std::max(p90_max, num_or(h, "p90"));
    p99_max = std::max(p99_max, num_or(h, "p99"));
  }
  if (count == 0) {
    std::printf("enqueue->deliver latency: no samples "
                "(no packet was delivered while the matrix was live)\n");
    return;
  }
  // Quantiles are log2-bucket upper bounds; max over ranks is the
  // conservative whole-world read.
  std::printf("enqueue->deliver latency: %.0f samples, worst-rank p50 %.0fus "
              "p90 %.0fus p99 %.0fus\n",
              count, p50_max, p90_max, p99_max);
}

void render_cache(const json& doc) {
  const json& metrics = member(doc, "metrics");
  const json& counters = member(metrics, "counters");
  if (!counters.is_object()) return;
  const double req = num_or(counters, "cache.bytes_requested");
  const double dev_rd = num_or(counters, "cache.dev_bytes_read");
  const double hits = num_or(counters, "cache.hits");
  const double misses = num_or(counters, "cache.misses");
  if (req + dev_rd + hits + misses == 0) {
    std::printf("page cache: no activity recorded\n");
    return;
  }
  std::printf("page cache: %s requested, %s device-read",
              human_bytes(req).c_str(), human_bytes(dev_rd).c_str());
  if (req > 0) std::printf(" | read-amp %.2fx", dev_rd / req);
  std::printf("\n");
  if (hits + misses > 0) {
    std::printf("            %.0f hits / %.0f misses (%.1f%% hit rate)\n",
                hits, misses, 100.0 * hits / (hits + misses));
  }
  for (const char* name : {"cache.read_us", "cache.fault_us"}) {
    const json& hist = member(member(metrics, "histograms"), name);
    if (num_or(hist, "count") == 0) continue;
    std::printf("            %-14s p50 %.0fus p90 %.0fus p99 %.0fus "
                "(%.0f ops)\n",
                name, num_or(hist, "p50"), num_or(hist, "p90"),
                num_or(hist, "p99"), num_or(hist, "count"));
  }
}

void render_frames(const json& doc, std::size_t top_n) {
  const json& heat = member(doc, "cache_heat");
  const json& top = member(heat, "top");
  if (!top.is_array() || top.size() == 0) return;
  std::printf("hottest frames (%zu of %.0f touched):\n",
              std::min(top.size(), top_n), num_or(heat, "touched"));
  for (std::size_t i = 0; i < top.size() && i < top_n; ++i) {
    const json& f = top.at(i);
    std::printf("  frame %6.0f  page %8.0f  %10.0f touches\n",
                num_or(f, "frame"), num_or(f, "page"), num_or(f, "touches"));
  }
}

}  // namespace

int run_heat(const std::string& file, std::size_t top_n) {
  const auto doc = read_metrics(file);
  if (!doc) return 1;
  const json& traversals = *doc->find("traversals");
  // Last traversal with a matrix: the freshest cumulative snapshot.
  const auto which = last_with(traversals, "comm_matrix");
  if (!which) {
    return fail_view(file + ": has no comm_matrix section (set "
                            "SFG_METRICS)");
  }
  const json& cm = *traversals.at(*which).find("comm_matrix");
  const auto grid = read_sent_grid(cm);
  if (!grid) {
    return fail_view(file + ": comm_matrix sent_bytes is not a square "
                            "matrix of non-negative integers");
  }
  std::printf("sfg_obs heat — %s, traversal %zu of %zu, %zu rank(s)\n",
              file.c_str(), *which + 1, traversals.size(), grid->bytes.size());
  render_matrix(*grid);
  render_latency(*cm.find("rows"));
  render_cache(*doc);
  render_frames(*doc, top_n);
  std::fflush(stdout);
  return 0;
}

}  // namespace sfg::obs_tool
