#include "loader.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>

namespace sfg::obs_tool {

std::optional<json> read_json(const std::string& file, std::string& error) {
  std::ifstream in(file);
  if (!in) {
    error = kCannotOpen;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto doc = json::parse(ss.str());
  if (!doc) error = "not valid JSON";
  return doc;
}

std::optional<json> read_metrics(const std::string& file) {
  std::string error;
  auto doc = read_json(file, error);
  if (doc && !has_tag(*doc, "schema", "sfg-metrics/1")) {
    error = "not an sfg-metrics/1 report";
  } else if (doc && (!has_kind(*doc, "traversals", &json::is_array) ||
                     doc->find("traversals")->size() == 0)) {
    error = "has no traversals";
  }
  if (!error.empty()) {
    fail_view(file + ": " + error);
    return std::nullopt;
  }
  return doc;
}

std::optional<std::size_t> last_with(const json& traversals,
                                     std::string_view key) {
  std::optional<std::size_t> last;
  for (std::size_t i = 0; i < traversals.size(); ++i) {
    if (const json* s = traversals.at(i).find(key); s && s->is_object()) last = i;
  }
  return last;
}

std::vector<ts_sample> read_ts_dir(const std::string& dir) {
  constexpr std::string_view kPrefix = "sfg_ts_rank";
  constexpr std::string_view kSuffix = ".jsonl";
  std::vector<ts_sample> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
    const char* first = name.data() + kPrefix.size();
    const char* last = name.data() + name.size() - kSuffix.size();
    int rank = 0;
    if (const auto r = std::from_chars(first, last, rank);
        r.ec != std::errc{} || r.ptr != last) {
      continue;
    }
    std::ifstream in(entry.path());
    std::optional<json> newest;
    for (std::string line; std::getline(in, line);) {
      auto sample = json::parse(line);
      if (sample && has_tag(*sample, "schema", "sfg-timeseries/1")) {
        newest = std::move(sample);
      }
    }
    if (newest) out.push_back({rank, std::move(*newest)});
  }
  std::sort(out.begin(), out.end(),
            [](const ts_sample& a, const ts_sample& b) { return a.rank < b.rank; });
  return out;
}

std::optional<sent_grid> read_sent_grid(const json& comm_matrix) {
  const auto n = int_at<std::size_t>(comm_matrix, "ranks");
  const json* rows = comm_matrix.find("rows");
  if (!n || *n == 0 || rows == nullptr || !rows->is_array() ||
      rows->size() != *n) {
    return std::nullopt;
  }
  sent_grid g;
  for (std::size_t o = 0; o < *n; ++o) {
    const json* cells = rows->at(o).find("sent_bytes");
    if (cells == nullptr || !cells->is_array() || cells->size() != *n) {
      return std::nullopt;
    }
    auto& row = g.bytes.emplace_back();
    for (std::size_t d = 0; d < *n; ++d) {
      const auto v = cells->at(d).get_int<std::uint64_t>();
      if (!v) return std::nullopt;
      row.push_back(*v);
      if (o != d && *v > g.hot_bytes) {
        g.hot_bytes = *v;
        g.hot_src = o;
        g.hot_dst = d;
      }
    }
  }
  return g;
}

bool has_key(const json& obj, std::string_view key) {
  return obj.find(key) != nullptr;
}

bool has_kind(const json& obj, std::string_view key,
              bool (json::*is_kind)() const) {
  const json* v = obj.find(key);
  return v != nullptr && (v->*is_kind)();
}

bool has_tag(const json& obj, std::string_view key, std::string_view tag) {
  const json* v = obj.find(key);
  return v != nullptr && v->is_string() && v->as_string() == tag;
}

const json& member(const json& obj, std::string_view key) {
  static const json kNone;
  const json* v = obj.find(key);
  return v != nullptr ? *v : kNone;
}

double num_or(const json& obj, std::string_view key, double fallback) {
  const json* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : fallback;
}

namespace {

/// `v` printed in the first of `units` (largest first) it reaches; the
/// last unit takes everything below.
struct unit {
  double scale;
  const char* format;
};
std::string scaled(double v, std::initializer_list<unit> units) {
  const unit* u = units.begin();
  while (u + 1 != units.end() && v < u->scale) ++u;
  char buf[32];
  std::snprintf(buf, sizeof buf, u->format, v / u->scale);
  return buf;
}

}  // namespace

std::string human_bytes(double v) {
  return scaled(v, {{1e9, "%.2fGB"}, {1e6, "%.2fMB"}, {1e3, "%.1fkB"}, {1, "%.0fB"}});
}

std::string human_rate(double v) {
  return scaled(v, {{1e9, "%.1fG"}, {1e6, "%.1fM"}, {1e3, "%.1fk"}, {1, "%.0f"}});
}

std::string human_us(double us) {
  return scaled(us, {{1e6, "%.2fs"}, {1e3, "%.1fms"}, {1, "%.0fus"}});
}

int fail_view(const std::string& what) {
  std::cerr << "sfg_obs: " << what << "\n";
  return 1;
}

}  // namespace sfg::obs_tool
