/// \file run_report.hpp
/// Machine-readable run reports.
///
/// Two producers share the schema:
///   - `run_report`: built explicitly by the CLI (`--json-report`) and any
///     harness that wants one document per run:
///       {"schema": "sfg-run-report/1", "name": ..., "params": {...},
///        <sections...>, "metrics": <registry snapshot>}
///   - the traversal collector: when SFG_METRICS=<path> is set (or
///     set_metrics_report_path), every traversal of either driver
///     (core/traversal_observer.hpp) appends one entry and rewrites
///     <path> as
///       {"schema": "sfg-metrics/1", "traversals": [...],
///        "metrics": <registry snapshot>}
///     Rewriting whole-file per traversal keeps the report valid JSON at
///     every instant (a crashed run still leaves a loadable report).
///
/// gather_json() is the cross-rank piece: a collective that ships each
/// rank's JSON fragment through the comm layer so rank 0 can serialize
/// one report for the whole world.
#pragma once

#include <span>
#include <string>

#include "obs/json.hpp"
#include "runtime/comm.hpp"

namespace sfg::obs {

class run_report {
 public:
  explicit run_report(std::string name) : name_(std::move(name)) {}

  void add_param(const std::string& key, json v) { params_[key] = std::move(v); }
  void add_section(const std::string& key, json v) {
    sections_[key] = std::move(v);
  }

  /// The full document, including the current registry snapshot.
  [[nodiscard]] json to_json() const;

  /// Serialize to `path`; returns false (and logs) on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::string name_;
  json params_ = json::object();
  json sections_ = json::object();
};

/// Overwrite `path` with `v` (+ trailing newline).  False on I/O failure.
bool write_json_file(const std::string& path, const json& v);

/// Collective: every rank contributes `local`; every rank returns the
/// array [rank0's value, rank1's value, ...].  All ranks of `c` must call.
[[nodiscard]] inline json gather_json(runtime::comm& c, const json& local) {
  const std::string mine = local.dump();
  std::vector<std::size_t> counts;
  const auto all = c.all_gatherv(
      std::span<const char>(mine.data(), mine.size()), &counts);
  json out = json::array();
  std::size_t off = 0;
  for (const std::size_t n : counts) {
    auto parsed = json::parse(std::string_view(all.data() + off, n));
    out.push_back(parsed ? std::move(*parsed) : json());
    off += n;
  }
  return out;
}

/// Append one traversal entry to the process-wide metrics report and
/// rewrite metrics_report_path().  No-op when no path is configured.
/// Call from one rank per traversal (the gathering rank).
void append_traversal_report(json entry);

/// Attach (or replace) an extra top-level section of the metrics report
/// and rewrite it — how post-run attributions that no traversal owns get
/// in (sfg_cli --em attaches the page-cache frame heat as "cache_heat").
/// No-op when no path is configured.
void set_metrics_report_section(const std::string& key, json v);

/// Drop all collected traversal entries (tests).
void clear_traversal_reports();

}  // namespace sfg::obs
