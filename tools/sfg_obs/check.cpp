/// \file check.cpp
/// `sfg_obs check`: validator for the observability output formats — CI
/// fails a bench job when a report is missing or malformed, instead of
/// silently uploading broken artifacts.
///
///   sfg_obs check [--bench FILE]... [--report FILE]... [--trace FILE]...
///                 [--flight FILE]... [--timeseries FILE]...
///                 [--comm-matrix FILE]... [--bfs-levels FILE]...
///                 [--critpath FILE]... [--mem FILE]... [--all FILE]...
///
///   --bench   BENCH_*.json from bench/bench_common.hpp's reporter:
///             run-report schema + bench section (wall_time_s, tables)
///   --report  a run report (sfg-run-report/1, from sfg_cli --json-report)
///             or a metrics report (sfg-metrics/1, from SFG_METRICS)
///   --trace   Chrome-trace JSON from SFG_TRACE / --trace.  Flow events
///             ('s'/'t'/'f') must carry an integer "id", and no flow id
///             may start or end twice (a second end is a packet delivered
///             twice); when any are present, at least one flow id must
///             have both its start and its end — a complete packet flow.
///   --flight  flight-recorder dump (sfg-flight/1, from SFG_FLIGHT_DUMP /
///             the chaos harness / a rank fault)
///   --timeseries  per-rank sfg-timeseries/1 JSONL from SFG_TS_INTERVAL_MS
///             (obs/timeseries.hpp): schema tags, strictly monotonic
///             seq/ts_us, non-negative rates, phase fractions summing to
///             at most 1, and at least one sample
///   --comm-matrix  an sfg-metrics/1 report whose traversal entries carry
///             sfg-comm-matrix/1 rank x rank traffic matrices: square,
///             non-negative, row sums matching the embedded counter
///             totals, self-delivery on the diagonal, and transpose
///             conservation (sent toward d == delivered from o)
///   --bfs-levels  an sfg-metrics/1 report whose traversal entries carry
///             "bfs" direction traces (from sfg_cli bfs
///             --bfs=topdown|bottomup|hybrid): mode tag, α/β knobs,
///             per-level direction records, and a direction_switch_level
///             equal to the first bottom-up level (or -1)
///   --critpath  an sfg-metrics/1 report whose traversal entries carry
///             sfg-critpath/1 critical-path sections (from SFG_SPANS):
///             delegates to obs::critpath_validate — connected
///             start→finish segment chain, blame fractions summing to at
///             most 1.0 of the measured wall and covering >= 90% of it
///   --mem     an sfg-metrics/1 report whose traversal entries carry
///             sfg-mem/1 memory-attribution sections (any SFG_METRICS
///             run): delegates to obs::mem_validate — one row
///             per rank with all subsystems, peak >= current everywhere,
///             per-row and section accounted totals summing exactly, a
///             positive RSS sample, and a well-formed pressure block
///   --all     umbrella: sniff each file's schema and run every validator
///             that applies (metrics reports additionally get the
///             comm-matrix / bfs-levels / critpath / mem checks for
///             whichever sections are present)
///
/// The four section flags require at least one traversal carrying the
/// section; --all checks only the sections that are there.  A field of
/// the wrong JSON kind is a validation failure, never a crash.
///
/// Exit status: 0 if every file validates, 1 otherwise (with one line per
/// problem on stderr), 2 on usage errors.
#include <cstdint>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "loader.hpp"
#include "obs/critpath.hpp"
#include "obs/mem.hpp"
#include "obs/timeseries.hpp"

namespace sfg::obs_tool {
namespace {

int g_failures = 0;

void fail(const std::string& file, const std::string& why) {
  std::cerr << "sfg_obs check: " << file << ": " << why << "\n";
  ++g_failures;
}

/// A JSON kind a rule requires, named for the failure message.
struct kind {
  bool (json::*is)() const;
  const char* name;
};
constexpr kind kNumber{&json::is_number, "numeric"};
constexpr kind kString{&json::is_string, "string"};
constexpr kind kArray{&json::is_array, "array"};
constexpr kind kObject{&json::is_object, "object"};

/// obj[key] exists with kind `k`; otherwise fails the file with
/// "<where> missing <kind> \"<key>\"" and returns false.
bool require(const std::string& file, const std::string& where,
             const json& obj, const char* key, kind k) {
  if (has_kind(obj, key, k.is)) return true;
  fail(file, where + (where.empty() ? "" : " ") + "missing " + k.name +
                 " \"" + key + "\"");
  return false;
}

/// Runs a src/obs validator on `input` and records its verdict: one
/// failure per reported problem.
template <auto validate, typename Input>
void check_with(const std::string& file, const std::string& where,
                const Input& input) {
  std::vector<std::string> errors;
  if (validate(input, &errors)) return;
  for (const std::string& e : errors) fail(file, where + e);
  if (errors.empty()) fail(file, where + "invalid");
}

/// Shared between --report and --bench: the sfg-run-report/1 envelope.
bool check_run_report_envelope(const std::string& file, const json& doc) {
  if (!has_tag(doc, "schema", "sfg-run-report/1")) {
    fail(file, "schema is not \"sfg-run-report/1\"");
    return false;
  }
  bool ok = require(file, "", doc, "name", kString);
  if (!require(file, "", doc, "metrics", kObject)) return false;
  for (const char* section : {"counters", "gauges", "timers"}) {
    if (!has_key(*doc.find("metrics"), section)) {
      fail(file, std::string("metrics missing \"") + section + "\"");
      ok = false;
    }
  }
  return ok;
}

void check_report(const std::string& file, const json& doc) {
  // Accept either producer: a run report or a per-traversal metrics file.
  if (has_tag(doc, "schema", "sfg-metrics/1")) {
    require(file, "sfg-metrics/1", doc, "traversals", kArray);
    require(file, "sfg-metrics/1", doc, "metrics", kObject);
    return;
  }
  check_run_report_envelope(file, doc);
}

/// Deep checks for a per-partitioner comparison table (emitted by
/// ablation_partitioners; any bench gaining a "partitioners" table is held
/// to the same contract).  Guards the fields the partitioner-matrix CI job
/// consumes: one row per known scheme, and sane replication numbers — an
/// RF below 1 or a missing bottleneck column means the bench is measuring
/// the wrong thing, not just formatting it badly.
void check_partitioner_table(const std::string& file, const json& t) {
  const json& headers = *t.find("headers");
  std::map<std::string, std::size_t> col;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (!headers.at(i).is_string()) {
      fail(file, "partitioners header " + std::to_string(i) +
                     " is not a string");
      return;
    }
    col[headers.at(i).as_string()] = i;
  }
  for (const char* required :
       {"partitioner", "chain_rf", "endpoint_rf", "edge_imbalance",
        "max_rank_delivered", "max_rank_msgs", "max_pair_bytes",
        "matrix_imbalance", "traffic_amp"}) {
    if (!col.contains(required)) {
      fail(file, std::string("partitioners table missing column \"") +
                     required + "\"");
      return;
    }
  }
  const json& rows = *t.find("rows");
  std::set<std::string> seen;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const json& row = rows.at(r);
    const std::string where = "partitioners row " + std::to_string(r);
    const json& name = row.at(col["partitioner"]);
    if (!name.is_string() || !seen.insert(name.as_string()).second) {
      fail(file, where + " has a missing or duplicate partitioner name");
      return;
    }
    for (const char* rf : {"chain_rf", "endpoint_rf", "edge_imbalance"}) {
      const json& v = row.at(col[rf]);
      if (!v.is_number() || v.as_double() < 1.0) {
        fail(file, where + " \"" + rf + "\" is not a number >= 1");
        return;
      }
    }
    for (const char* n : {"max_rank_delivered", "max_rank_msgs",
                          "max_pair_bytes", "matrix_imbalance",
                          "traffic_amp"}) {
      if (!row.at(col[n]).is_number()) {
        fail(file, where + " \"" + n + "\" is not a number");
        return;
      }
    }
  }
  for (const char* scheme : {"edge_list", "dbh", "hdrf", "sne"}) {
    if (!seen.contains(scheme)) {
      fail(file,
           std::string("partitioners table missing scheme \"") + scheme +
               "\"");
    }
  }
}

void check_bench(const std::string& file, const json& doc) {
  if (!check_run_report_envelope(file, doc)) return;
  if (!has_tag(doc, "schema_bench", "sfg-bench-report/1")) {
    fail(file, "schema_bench is not \"sfg-bench-report/1\"");
    return;
  }
  require(file, "", doc, "wall_time_s", kNumber);
  if (!has_kind(doc, "tables", &json::is_object) ||
      doc.find("tables")->size() == 0) {
    fail(file, "missing non-empty object \"tables\"");
    return;
  }
  for (const auto& [name, t] : doc.find("tables")->items()) {
    if (!has_kind(t, "headers", &json::is_array) ||
        !has_kind(t, "rows", &json::is_array)) {
      fail(file, "table \"" + name + "\" missing headers/rows");
      continue;
    }
    const std::size_t width = t.find("headers")->size();
    bool widths_ok = true;
    for (std::size_t i = 0; i < t.find("rows")->size(); ++i) {
      const json& row = t.find("rows")->at(i);
      if (!row.is_array() || row.size() != width) {
        fail(file, "table \"" + name + "\" row " + std::to_string(i) +
                       " is not an array of header width");
        widths_ok = false;
        break;
      }
    }
    if (name == "partitioners" && widths_ok) {
      check_partitioner_table(file, t);
    }
  }
}

void check_trace(const std::string& file, const json& doc) {
  if (!require(file, "", doc, "traceEvents", kArray)) return;
  const json& events = *doc.find("traceEvents");
  if (events.size() == 0) {
    fail(file, "traceEvents is empty");
    return;
  }
  // Flow events bind by (cat, id); count each flow's starts and ends so
  // no flow can start or end twice, and at least one is *complete* (start
  // and end) when the trace contains any flows at all.
  struct flow_phases {
    int s = 0, f = 0;
  };
  std::map<std::pair<std::string, std::uint64_t>, flow_phases> flows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json& ev = events.at(i);
    const std::string where = "event " + std::to_string(i);
    for (const char* key : {"name", "ph", "pid"}) {
      if (!has_key(ev, key)) {
        fail(file, where + " missing \"" + key + "\"");
        return;  // one malformed event fails the file; no need to spam
      }
    }
    if (!require(file, where, ev, "ph", kString)) return;
    const std::string& ph = ev.find("ph")->as_string();
    if (ph != "M" && !has_key(ev, "ts")) {
      fail(file, where + " (ph=" + ph + ") missing \"ts\"");
      return;
    }
    if (ph == "X" && !has_key(ev, "dur")) {
      fail(file, "complete " + where + " missing \"dur\"");
      return;
    }
    if (ph == "s" || ph == "t" || ph == "f") {
      const auto id = int_at<std::uint64_t>(ev, "id");
      const json* cat = ev.find("cat");
      if (!id || (cat != nullptr && !cat->is_string())) {
        fail(file, "flow " + where + " (ph=" + ph +
                       ") needs an integer \"id\" and a string or no \"cat\"");
        return;
      }
      auto& fp = flows[{cat != nullptr ? cat->as_string() : "", *id}];
      if (ph != "t") {
        int& seen = ph == "s" ? fp.s : fp.f;
        if (++seen > 1) {
          fail(file, "flow id " + std::to_string(*id) + " carries two '" +
                         ph + "' events (" + where + ")");
          return;
        }
      }
    }
  }
  if (!flows.empty()) {
    bool complete = false;
    for (const auto& [key, fp] : flows) complete = complete || (fp.s && fp.f);
    if (!complete) {
      fail(file, "trace has flow events but no flow id carries both a start "
                 "('s') and an end ('f') — no complete packet flow");
    }
  }
}

void check_flight(const std::string& file, const json& doc) {
  if (!has_tag(doc, "schema", "sfg-flight/1")) {
    fail(file, "schema is not \"sfg-flight/1\"");
    return;
  }
  require(file, "", doc, "why", kString);
  require(file, "", doc, "capacity", kNumber);
  if (!require(file, "", doc, "ranks", kArray)) return;
  const json& ranks = *doc.find("ranks");
  std::set<std::int64_t> seen_ranks;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const json& entry = ranks.at(r);
    const std::string where = "ranks[" + std::to_string(r) + "]";
    const auto rank = int_at<std::int64_t>(entry, "rank");
    const auto recorded = int_at<std::uint64_t>(entry, "recorded");
    const auto dropped = int_at<std::uint64_t>(entry, "dropped");
    if (!rank || !recorded || !dropped) {
      fail(file, where + " missing integer \"rank\"/\"recorded\"/\"dropped\"");
      return;
    }
    if (!seen_ranks.insert(*rank).second) {
      fail(file, where + " duplicates rank " + std::to_string(*rank));
      return;
    }
    if (!require(file, where, entry, "events", kArray)) return;
    const json& events = *entry.find("events");
    if (*dropped > *recorded || events.size() != *recorded - *dropped) {
      fail(file, where + " events count != recorded - dropped");
      return;
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const json& ev = events.at(i);
      const std::string ev_where = where + ".events[" + std::to_string(i) + "]";
      if (!require(file, ev_where, ev, "ts_us", kNumber) ||
          !require(file, ev_where, ev, "kind", kString) ||
          !require(file, ev_where, ev, "a", kNumber) ||
          !require(file, ev_where, ev, "b", kNumber)) {
        return;
      }
    }
  }
}

/// One traversal entry's "comm_matrix" section (sfg-comm-matrix/1): the
/// rank x rank traffic matrix gathered by visitor_queue.  Checks both
/// shape (square N x N, non-negative) and the conservation invariants the
/// mailbox guarantees at quiescence: row sums match the embedded totals
/// snapshot, the diagonal is self-delivery (sent[i][i] == delivered on i
/// from i), the transpose balances (what o sent toward d, d delivered
/// from o), and the per-traversal sfg-metrics mailbox counters never
/// exceed the cumulative totals.
void check_comm_matrix_entry(const std::string& file, const std::string& where,
                             const json& cm, const json& entry) {
  if (!has_tag(cm, "schema", "sfg-comm-matrix/1")) {
    fail(file, where + " schema is not \"sfg-comm-matrix/1\"");
    return;
  }
  const auto ranks = int_at<std::size_t>(cm, "ranks");
  if (!ranks || !has_kind(cm, "rows", &json::is_array)) {
    fail(file, where + " missing integer \"ranks\" or array \"rows\"");
    return;
  }
  const std::size_t n = *ranks;
  const json& rows = *cm.find("rows");
  if (n == 0 || rows.size() != n) {
    fail(file, where + " rows count != ranks");
    return;
  }
  constexpr const char* kRowKeys[] = {
      "sent_records", "sent_bytes",    "delivered_records", "delivered_bytes",
      "dup_records",  "flush_packets", "flush_bytes"};
  // Row sums vs the totals snapshot taken at the same instant.
  constexpr std::pair<const char*, const char*> kSumChecks[] = {
      {"sent_records", "records_sent"},
      {"delivered_records", "records_delivered"},
      {"flush_packets", "packets_sent"},
      {"flush_bytes", "packet_bytes_sent"}};
  // matrix[key][rank] = that rank's row, loaded as u64 for exact sums.
  std::map<std::string, std::vector<std::vector<std::uint64_t>>> m;
  for (std::size_t r = 0; r < n; ++r) {
    const json& row = rows.at(r);
    const std::string rw = where + " row " + std::to_string(r);
    if (int_at<std::size_t>(row, "rank") != r) {
      fail(file, rw + " \"rank\" is not " + std::to_string(r) +
                     " (rows must be in rank order)");
      return;
    }
    for (const char* key : kRowKeys) {
      if (!has_kind(row, key, &json::is_array) ||
          row.find(key)->size() != n) {
        fail(file, rw + " \"" + key + "\" is not a length-" +
                       std::to_string(n) + " array (matrix must be square)");
        return;
      }
      std::vector<std::uint64_t> vals;
      for (std::size_t c = 0; c < n; ++c) {
        const auto v = row.find(key)->at(c).get_int<std::uint64_t>();
        if (!v) {
          fail(file, rw + " \"" + key + "\"[" + std::to_string(c) +
                         "] is not a non-negative integer");
          return;
        }
        vals.push_back(*v);
      }
      m[key].push_back(std::move(vals));
    }
    if (!has_key(row, "latency_us")) {
      fail(file, rw + " missing \"latency_us\" histogram");
      return;
    }
    if (!require(file, rw, row, "totals", kObject)) return;
    for (const auto& [row_key, total_key] : kSumChecks) {
      const auto want = int_at<std::uint64_t>(*row.find("totals"), total_key);
      if (!want) {
        fail(file, rw + " totals missing integer \"" + total_key + "\"");
        return;
      }
      const auto& cells = m[row_key][r];
      const std::uint64_t got =
          std::accumulate(cells.begin(), cells.end(), std::uint64_t{0});
      if (got != *want) {
        fail(file, rw + " sum(" + row_key + ") = " + std::to_string(got) +
                       " != totals." + total_key + " = " +
                       std::to_string(*want));
        return;
      }
    }
    // Diagonal: what rank r sent to itself it also delivered from itself.
    if (m["sent_records"][r][r] != m["delivered_records"][r][r]) {
      fail(file, rw + " diagonal sent_records != delivered_records "
                      "(self-delivery must balance)");
      return;
    }
  }
  // Transpose conservation at quiescence: every record o sent toward
  // final dest d was delivered by d and attributed to origin o (routing
  // relays don't touch these rows; duplicates are suppressed before
  // delivery and land in dup_records instead).
  for (std::size_t o = 0; o < n; ++o) {
    for (std::size_t d = 0; d < n; ++d) {
      if (m["sent_records"][o][d] != m["delivered_records"][d][o]) {
        fail(file, where + " sent_records[" + std::to_string(o) + "][" +
                       std::to_string(d) + "] != delivered_records[" +
                       std::to_string(d) + "][" + std::to_string(o) + "]");
        return;
      }
    }
  }
  // The sfg-metrics per-rank mailbox counters are per-traversal deltas;
  // the matrix totals are cumulative over the queue's life, so delta <=
  // cumulative always.
  const json* per_rank = entry.find("per_rank");
  if (per_rank == nullptr || !per_rank->is_array() || per_rank->size() != n) {
    return;
  }
  for (std::size_t r = 0; r < n; ++r) {
    const json* mb = per_rank->at(r).find("mailbox");
    if (mb == nullptr) continue;
    const json& totals = *rows.at(r).find("totals");
    for (const char* key : {"records_sent", "records_delivered",
                            "packets_sent", "packet_bytes_sent"}) {
      const auto delta = int_at<std::uint64_t>(*mb, key);
      const auto total = int_at<std::uint64_t>(totals, key);
      if (delta && total && *delta > *total) {
        fail(file, where + " per_rank[" + std::to_string(r) + "].mailbox." +
                       key + " exceeds the cumulative matrix total");
        return;
      }
    }
  }
}

/// One traversal's "bfs" section: mode tag, the α/β knobs actually used,
/// a non-empty per-level direction trace, and a direction_switch_level
/// consistent with that trace (== index of the first bottom-up level, or
/// -1 when the traversal never left top-down).
void check_bfs_entry(const std::string& file, const std::string& where,
                     const json& bfs, const json& /*entry*/) {
  if (!require(file, where, bfs, "mode", kString)) return;
  const std::string& mode = bfs.find("mode")->as_string();
  if (mode != "async" && mode != "topdown" && mode != "bottomup" &&
      mode != "hybrid") {
    fail(file, where + ".mode \"" + mode + "\" is not a BFS mode");
    return;
  }
  if (!require(file, where, bfs, "alpha", kNumber) ||
      !require(file, where, bfs, "beta", kNumber)) {
    return;
  }
  const auto switch_level = int_at<std::int64_t>(bfs, "direction_switch_level");
  if (!switch_level) {
    fail(file, where + " missing integer \"direction_switch_level\"");
    return;
  }
  if (!require(file, where, bfs, "levels", kArray)) return;
  const json& levels = *bfs.find("levels");
  if (levels.size() == 0) {
    fail(file, where + ".levels is empty (level-synchronous traversal "
                       "recorded no levels)");
    return;
  }
  std::int64_t first_bottom_up = -1;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const json& l = levels.at(i);
    const std::string lwhere = where + ".levels[" + std::to_string(i) + "]";
    for (const char* key :
         {"level", "frontier_vertices", "frontier_edges", "claims_sent"}) {
      if (!require(file, lwhere, l, key, kNumber)) return;
    }
    if (int_at<std::size_t>(l, "level") != i) {
      fail(file, lwhere + ".level != " + std::to_string(i));
      return;
    }
    if (!require(file, lwhere, l, "direction", kString)) return;
    const std::string& dir = l.find("direction")->as_string();
    if (dir != "topdown" && dir != "bottomup") {
      fail(file, lwhere + ".direction \"" + dir + "\" is not a direction");
      return;
    }
    if (dir == "bottomup" && first_bottom_up < 0) {
      first_bottom_up = static_cast<std::int64_t>(i);
    }
  }
  if (*switch_level != first_bottom_up) {
    fail(file, where + ".direction_switch_level (" +
                   std::to_string(*switch_level) +
                   ") does not match the first bottom-up level in the "
                   "trace (" +
                   std::to_string(first_bottom_up) + ")");
  }
}

/// A rule whose validator lives next to its producer in src/obs —
/// obs::critpath_validate (a connected start→finish segment chain within
/// the measured window, fractions consistent with durations, blame totals
/// matching the segments, coverage >= 90%) and obs::mem_validate (see
/// obs/mem.hpp) — so the unit tests and this tool can never drift apart.
template <auto validate>
void check_by(const std::string& file, const std::string& where,
              const json& section, const json& /*entry*/) {
  check_with<validate>(file, where + ": ", section);
}

/// A traversal section and its validator.  `hint` says why a report
/// might lack the section.
struct section_rule {
  const char* flag;
  const char* key;
  void (*check)(const std::string& file, const std::string& where,
                const json& section, const json& entry);
  const char* hint;
};

constexpr section_rule kSections[] = {
    {"--comm-matrix", "comm_matrix", check_comm_matrix_entry,
     "was SFG_METRICS set?"},
    {"--bfs-levels", "bfs", check_bfs_entry,
     "was the traversal run with --bfs=topdown|bottomup|hybrid and "
     "SFG_METRICS set?"},
    {"--critpath", "critpath", check_by<obs::critpath_validate>,
     "was SFG_SPANS set alongside SFG_METRICS?"},
    {"--mem", "mem", check_by<obs::mem_validate>,
     "was SFG_METRICS set?"},
};

/// Validates `rule`'s section in every traversal that carries one;
/// returns how many did.
std::size_t check_sections(const std::string& file, const json& traversals,
                           const section_rule& rule) {
  std::size_t carried = 0;
  for (std::size_t i = 0; i < traversals.size(); ++i) {
    const json& entry = traversals.at(i);
    if (!has_key(entry, rule.key)) continue;
    ++carried;
    rule.check(file, "traversals[" + std::to_string(i) + "]." + rule.key,
               *entry.find(rule.key), entry);
  }
  return carried;
}

/// A section flag: an sfg-metrics/1 report where at least one traversal
/// carries the section, and every one present validates.  The async queue
/// writes no "bfs" section, so a report from a mixed run passes
/// --bfs-levels as long as one level-synchronous traversal is in it.
void check_section(const std::string& file, const json& doc,
                   const section_rule& rule) {
  if (!has_tag(doc, "schema", "sfg-metrics/1")) {
    fail(file, "schema is not \"sfg-metrics/1\"");
    return;
  }
  if (!require(file, "", doc, "traversals", kArray)) return;
  if (check_sections(file, *doc.find("traversals"), rule) == 0) {
    fail(file, std::string("no traversal carries a \"") + rule.key +
                   "\" section (" + rule.hint + ")");
  }
}

/// The flags that check one whole JSON document.
constexpr std::pair<std::string_view,
                    void (*)(const std::string&, const json&)>
    kDocChecks[] = {{"--bench", check_bench},
                    {"--report", check_report},
                    {"--trace", check_trace},
                    {"--flight", check_flight}};

void check_timeseries(const std::string& file) {
  // The line-level rules live next to the producer (obs/timeseries.cpp).
  check_with<obs::ts_validate_file>(file, "", file);
}

/// --all: schema-sniffed umbrella.  One flag, every registered validator
/// that applies to the file.  Sniffing is structural, not by extension:
/// a whole-file JSON parse that fails falls through to the line-oriented
/// time-series validator (the only JSONL format we emit); parsed
/// documents dispatch on their schema tag.
void check_all(const std::string& file) {
  std::string error;
  const auto doc = read_json(file, error);
  if (error == kCannotOpen) {
    fail(file, error);
    return;
  }
  if (!doc || !doc->is_object()) {
    check_timeseries(file);
    return;
  }
  if (has_key(*doc, "traceEvents")) {
    check_trace(file, *doc);
  } else if (has_tag(*doc, "schema", "sfg-flight/1")) {
    check_flight(file, *doc);
  } else if (has_tag(*doc, "schema", "sfg-run-report/1")) {
    if (has_key(*doc, "schema_bench")) {
      check_bench(file, *doc);
    } else {
      check_report(file, *doc);
    }
  } else if (has_tag(*doc, "schema", "sfg-metrics/1")) {
    check_report(file, *doc);
    if (!has_kind(*doc, "traversals", &json::is_array)) {
      return;  // check_report already failed the file
    }
    for (const section_rule& rule : kSections) {
      check_sections(file, *doc->find("traversals"), rule);
    }
  } else {
    fail(file, "unrecognized document (no known schema tag, traceEvents, or "
               "time-series stream)");
  }
}

}  // namespace

int run_check(int argc, char** argv) {
  if (argc < 1) return usage();
  int checked = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string file = argv[++i];
    const section_rule* rule = nullptr;
    for (const section_rule& r : kSections) {
      if (flag == r.flag) rule = &r;
    }
    void (*check)(const std::string&, const json&) = nullptr;
    for (const auto& [f, c] : kDocChecks) {
      if (flag == f) check = c;
    }
    if (flag == "--timeseries") {
      check_timeseries(file);
    } else if (flag == "--all") {
      check_all(file);
    } else if (rule == nullptr && check == nullptr) {
      return usage();
    } else if (std::string error; const auto doc = read_json(file, error)) {
      if (rule != nullptr) {
        check_section(file, *doc, *rule);
      } else {
        check(file, *doc);
      }
    } else {
      fail(file, error);
    }
    ++checked;
  }
  if (g_failures == 0) {
    std::cout << "sfg_obs check: " << checked << " file(s) OK\n";
    return 0;
  }
  return 1;
}

}  // namespace sfg::obs_tool
