/// \file loader.hpp
/// What every `sfg_obs` subcommand reads, defined once (loader.cpp): whole
/// JSON documents, the traversal that carries a given section, the newest
/// sample of each per-rank time-series stream, the comm matrix's byte
/// grid, and the number formatting the views share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace sfg::obs_tool {

using obs::json;

/// Parses `file` as one JSON document.  On failure returns nullopt and
/// sets `error` to kCannotOpen or "not valid JSON".
inline constexpr std::string_view kCannotOpen = "cannot open";
[[nodiscard]] std::optional<json> read_json(const std::string& file,
                                            std::string& error);

/// `file` as an sfg-metrics/1 report with at least one traversal;
/// otherwise prints why to stderr and returns nullopt.
[[nodiscard]] std::optional<json> read_metrics(const std::string& file);

/// Index of the last traversal whose `key` member is an object — the
/// freshest cumulative snapshot of that section.
[[nodiscard]] std::optional<std::size_t> last_with(const json& traversals,
                                                   std::string_view key);

/// One rank's newest valid sfg-timeseries/1 line.
struct ts_sample {
  int rank = 0;
  json line;
};

/// The newest valid sample of every sfg_ts_rank<r>.jsonl in `dir`, in
/// rank order.  Ranks without a valid line are left out.
[[nodiscard]] std::vector<ts_sample> read_ts_dir(const std::string& dir);

/// A comm_matrix section's sent_bytes grid, [origin][final dest], and its
/// hottest off-diagonal pair (hot_bytes == 0: none).
struct sent_grid {
  std::vector<std::vector<std::uint64_t>> bytes;
  std::size_t hot_src = 0;
  std::size_t hot_dst = 0;
  std::uint64_t hot_bytes = 0;
};

/// nullopt unless the section has an integer "ranks" N > 0 and N "rows",
/// each with a length-N sent_bytes array of non-negative integers.
[[nodiscard]] std::optional<sent_grid> read_sent_grid(const json& comm_matrix);

[[nodiscard]] bool has_key(const json& obj, std::string_view key);
/// obj[key] exists and `is_kind` holds for it, e.g. &json::is_array.
[[nodiscard]] bool has_kind(const json& obj, std::string_view key,
                            bool (json::*is_kind)() const);
/// obj[key] is the string `tag`.
[[nodiscard]] bool has_tag(const json& obj, std::string_view key,
                           std::string_view tag);
/// obj[key] as an integer of type Int; nullopt when absent, not an
/// integer, or out of range.
template <typename Int>
[[nodiscard]] std::optional<Int> int_at(const json& obj, std::string_view key) {
  const json* v = obj.find(key);
  return v != nullptr ? v->get_int<Int>() : std::nullopt;
}
/// obj[key], or a null value when absent — which find() and num_or()
/// read as empty, so lookups can chain.
[[nodiscard]] const json& member(const json& obj, std::string_view key);
/// obj[key] when it is a number, else `fallback`.
[[nodiscard]] double num_or(const json& obj, std::string_view key,
                            double fallback = 0);

[[nodiscard]] std::string human_bytes(double v);  ///< "1.23MB"
[[nodiscard]] std::string human_rate(double v);   ///< "1.2M" (per second)
[[nodiscard]] std::string human_us(double us);    ///< "1.2ms"

/// Prints "sfg_obs: <what>" to stderr and returns exit status 1.
int fail_view(const std::string& what);

/// Prints the usage text to stderr and returns exit status 2.
int usage();

// The subcommands, one file each; each returns the process exit status.
int run_check(int argc, char** argv);
int run_top(const std::string& dir, std::size_t interval_ms, bool once);
int run_heat(const std::string& file, std::size_t top_n);
int run_mem(const std::string& file);
/// `traversal` is 1-based; 0 picks the last traversal with a critpath.
int run_why(const std::string& file, bool as_json, std::size_t traversal);

}  // namespace sfg::obs_tool
