/// \file why.cpp
/// `sfg_obs why [--json] [--traversal N] FILE`: bottleneck attribution.
/// Renders the ranked answer to "where did the wall time go?" from the
/// sfg-critpath/1 section a traversal embeds when SFG_SPANS is set
/// (DESIGN.md §14).  Each blame line is cross-referenced against the
/// *other* sections of the same report:
///
///   - wire segments name their channel and are checked against the
///     comm-matrix hottest origin->dest pair (sfg-comm-matrix/1);
///   - io_wait segments carry the page-cache read amplification from the
///     registry snapshot (cache.dev_bytes_read / cache.bytes_requested);
///   - when the traversal was a level-synchronous BFS, blame is located
///     in level space via the critpath section's barrier markers.
///
/// N counts traversals from 1, in the text header and in the --json
/// "traversal" field alike; without it the last traversal carrying a
/// critpath section is shown.
///
/// Exit 0 after rendering a validated section; 1 on a missing/invalid
/// report, an N past the last traversal, or a critpath section that fails
/// critpath_validate (CI gates on this).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "loader.hpp"
#include "obs/critpath.hpp"

namespace sfg::obs_tool {
namespace {

std::string string_or(const json& obj, std::string_view key,
                      const char* fallback) {
  const json* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

/// Map a blame entry's chain extent to the BFS levels it overlaps.
/// levels[i].ts_us is level i's barrier exit, so level i's work spans
/// [levels[i].ts_us, levels[i+1].ts_us).
bool level_range(const json& section, int rank, const std::string& kind,
                 std::uint64_t& lo_level, std::uint64_t& hi_level) {
  const json* levels = section.find("levels");
  const json* segs = section.find("segments");
  if (levels == nullptr || !levels->is_array() || levels->size() == 0 ||
      segs == nullptr || !segs->is_array()) {
    return false;
  }
  const auto u64 = [](const json& obj, const char* key) {
    return static_cast<std::uint64_t>(num_or(obj, key));
  };
  std::uint64_t lo_ts = ~std::uint64_t{0}, hi_ts = 0;
  for (std::size_t i = 0; i < segs->size(); ++i) {
    const json& e = segs->at(i);
    std::string seg_kind = string_or(e, "kind", "");
    if (e.find("src") != nullptr) {  // wire segments blame under their channel key
      seg_kind = "wire " + std::to_string(static_cast<int>(num_or(e, "src"))) +
                 "->" + std::to_string(static_cast<int>(num_or(e, "dst")));
    }
    if (static_cast<int>(num_or(e, "rank", -1)) != rank || seg_kind != kind) {
      continue;
    }
    lo_ts = std::min(lo_ts, u64(e, "t0_us"));
    hi_ts = std::max(hi_ts, u64(e, "t1_us"));
  }
  if (hi_ts == 0 || lo_ts > hi_ts) return false;
  bool found = false;
  for (std::size_t i = 0; i < levels->size(); ++i) {
    const std::uint64_t lv = u64(levels->at(i), "level");
    const std::uint64_t t0 = u64(levels->at(i), "ts_us");
    const std::uint64_t t1 = i + 1 < levels->size()
                                 ? u64(levels->at(i + 1), "ts_us")
                                 : ~std::uint64_t{0};
    if (t1 <= lo_ts || t0 >= hi_ts) continue;  // no overlap
    if (!found) {
      lo_level = hi_level = lv;
      found = true;
    } else {
      hi_level = std::max(hi_level, lv);
    }
  }
  return found;
}

}  // namespace

int run_why(const std::string& file, bool as_json, std::size_t traversal) {
  const auto doc = read_metrics(file);
  if (!doc) return 1;
  const json& traversals = *doc->find("traversals");

  // Pick the requested traversal, or the last one carrying a critpath.
  std::optional<std::size_t> which = last_with(traversals, "critpath");
  if (traversal > 0) {
    if (traversal > traversals.size()) {
      return fail_view(file + ": traversal " + std::to_string(traversal) +
                       " out of range (report has " +
                       std::to_string(traversals.size()) + ")");
    }
    which = traversal - 1;
  }
  const json* entry = which ? &traversals.at(*which) : nullptr;
  const json* section = entry != nullptr ? entry->find("critpath") : nullptr;
  if (section == nullptr || !section->is_object()) {
    return fail_view(file + ": has no critpath section (run with SFG_SPANS=1)");
  }
  std::vector<std::string> errors;
  if (!obs::critpath_validate(*section, &errors)) {
    fail_view(file + ": critpath section is invalid:");
    for (const auto& e : errors) std::cerr << "  " << e << "\n";
    return 1;
  }

  const double wall_us = num_or(*section, "wall_us");
  const double coverage = num_or(*section, "coverage");

  // Cross-reference inputs from the rest of the report.
  const json* cm = entry->find("comm_matrix");
  const auto matrix = cm != nullptr ? read_sent_grid(*cm) : std::nullopt;
  const json& counters = member(member(*doc, "metrics"), "counters");
  const double req = num_or(counters, "cache.bytes_requested");
  const double read_amp =
      req > 0 ? num_or(counters, "cache.dev_bytes_read") / req : 0;

  const json* blame = section->find("blame");
  json out_attr = json::array();
  if (!as_json) {
    std::printf("sfg_obs why — %s, traversal %zu of %zu\n", file.c_str(),
                *which + 1, traversals.size());
    std::printf("wall %s, critical path covers %.1f%%\n",
                human_us(wall_us).c_str(), coverage * 100.0);
  }
  constexpr std::size_t kTopText = 10;
  for (std::size_t i = 0; blame != nullptr && i < blame->size(); ++i) {
    const json& b = blame->at(i);
    const int rank = static_cast<int>(num_or(b, "rank"));
    const std::string kind = string_or(b, "kind", "?");
    const double dur_us = num_or(b, "dur_us");
    const double frac = num_or(b, "frac");

    std::string note;
    int wsrc = 0, wdst = 0;  // a "wire S->D" kind names its channel
    if (std::sscanf(kind.c_str(), "wire %d->%d", &wsrc, &wdst) == 2 && matrix) {
      const std::size_t n = matrix->bytes.size();
      const auto src = static_cast<std::size_t>(wsrc);
      const auto dst = static_cast<std::size_t>(wdst);
      const std::uint64_t bytes =
          src < n && dst < n ? matrix->bytes[src][dst] : 0;
      if (src == matrix->hot_src && dst == matrix->hot_dst) {
        note = "the max-pair channel (" +
               human_bytes(static_cast<double>(bytes)) + ")";
      } else {
        note = human_bytes(static_cast<double>(bytes)) + " (max pair " +
               std::to_string(matrix->hot_src) + "->" +
               std::to_string(matrix->hot_dst) + ")";
      }
    } else if (kind == "io_wait" && read_amp > 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "read-amp %.2fx", read_amp);
      note = buf;
    }
    std::uint64_t lo_level = 0, hi_level = 0;
    const bool has_levels = level_range(*section, rank, kind, lo_level, hi_level);
    std::string at_levels;
    if (has_levels) {
      at_levels = lo_level == hi_level
                      ? "level " + std::to_string(lo_level)
                      : "levels " + std::to_string(lo_level) + "-" +
                            std::to_string(hi_level);
    }

    if (as_json) {
      json e = json::object();
      e["rank"] = static_cast<std::int64_t>(rank);
      e["kind"] = kind;
      e["dur_us"] = dur_us;
      e["frac"] = frac;
      if (has_levels) {
        e["level_lo"] = lo_level;
        e["level_hi"] = hi_level;
      }
      if (!note.empty()) e["note"] = note;
      out_attr.push_back(std::move(e));
    } else if (i < kTopText) {
      std::string detail;
      if (!at_levels.empty()) detail += at_levels;
      if (!note.empty()) {
        if (!detail.empty()) detail += ", ";
        detail += note;
      }
      std::printf("  %5.1f%%  rank %-3d %-12s %10s  %s\n", frac * 100.0, rank,
                  kind.c_str(), human_us(dur_us).c_str(), detail.c_str());
    }
  }
  if (as_json) {
    json out = json::object();
    out["file"] = file;
    out["traversal"] = static_cast<std::uint64_t>(*which + 1);
    out["wall_us"] = wall_us;
    out["coverage"] = coverage;
    out["attribution"] = std::move(out_attr);
    std::printf("%s\n", out.dump().c_str());
  } else if (blame != nullptr && blame->size() > kTopText) {
    std::printf("  ... %zu more blame entr%s (use --json for all)\n",
                blame->size() - kTopText,
                blame->size() - kTopText == 1 ? "y" : "ies");
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace sfg::obs_tool
