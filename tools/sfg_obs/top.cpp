/// \file top.cpp
/// `sfg_obs top`: terminal monitor for a running traversal — `top` for
/// the visitor queue, and the one live view.  Tails the per-rank
/// sfg-timeseries/1 JSONL files that SFG_TS_INTERVAL_MS / SFG_TS_DIR
/// produce (obs/timeseries.hpp) and renders, per refresh:
///
///   - traversal progress: visitors executed + execution rate, summed and
///     per rank
///   - per-rank queue depth, locally-known in-flight balance, termination
///     epoch and a phase-breakdown bar (where each rank's poll loop is
///     spending its time: visit/scan/pack/flush/poll/term/io/idle)
///   - mailbox and page-cache rates from the process-wide counters, with
///     wire-over-payload and device-over-requested amplification
///   - accounted bytes against RSS (the coverage ratio), flagging ranks
///     at or over SFG_MEM_BUDGET
///   - straggler highlighting: a rank whose queue depth or execution rate
///     is far from the median is marked `*` and listed in the footer
///
///   sfg_obs top [--dir DIR] [--interval MS] [--once]
///
///     --dir DIR       directory with sfg_ts_rank<r>.jsonl files
///                     (default: $SFG_TS_DIR, else ".")
///     --interval MS   refresh period in live mode (default 500)
///     --once          render one snapshot without clearing the screen and
///                     exit — 0 if at least one rank had a valid sample,
///                     1 otherwise (CI smoke uses this)
///
/// Live mode re-reads the (small, line-per-sample) files each refresh and
/// redraws with ANSI clear; stop with Ctrl-C.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "loader.hpp"
#include "obs/metrics.hpp"

namespace sfg::obs_tool {
namespace {

/// Process-wide rates in a sample's "rates" object, as `top` merges and
/// prints them.
enum : std::size_t {
  kPackets, kPacketBytes, kHits, kMisses, kWritebacks,
  kCommBytes, kReqBytes, kDevRead, kDevWrite, kRates
};
constexpr const char* kRateKeys[kRates] = {
    "packets_sent",    "packet_bytes_sent", "cache_hits",
    "cache_misses",    "cache_writebacks",  "comm_bytes_sent",
    "bytes_requested", "dev_bytes_read",    "dev_bytes_written"};

/// One rank's most recent sample, flattened for rendering.
struct rank_row {
  int rank = 0;
  std::uint64_t seq = 0;
  double queue_depth = 0;
  double inflight = 0;
  double epoch = 0;
  double executed = 0;
  double executed_rate = 0;
  // Phase fractions in enum order (phase.hpp): visit, scan, mbox_pack,
  // mbox_flush, poll, term, io_wait, idle.
  double phase[8] = {};
  // Process-wide rates as seen at this rank's sample time.
  double rate[kRates] = {};
  // Memory attribution gauges (obs/mem.hpp): this rank's accounted bytes
  // and its sampled RSS at the same instant.
  double mem_accounted = 0;
  double mem_rss = 0;
  bool straggler = false;
  bool over_budget = false;
};

constexpr const char* kPhaseKeys[8] = {"visit",     "scan", "mbox_pack",
                                       "mbox_flush", "poll", "term",
                                       "io_wait",    "idle"};
constexpr char kPhaseGlyph[8] = {'V', 'S', 'K', 'F', 'P', 'T', 'I', '.'};

rank_row to_row(const ts_sample& s) {
  rank_row r;
  r.rank = s.rank;
  r.seq = int_at<std::uint64_t>(s.line, "seq").value_or(0);
  const json& g = member(s.line, "gauges");
  r.queue_depth = num_or(g, "queue_depth");
  r.inflight = num_or(g, "inflight_records");
  r.epoch = num_or(g, "term_epoch");
  r.executed = num_or(g, "visitors_executed");
  r.executed_rate = num_or(g, "executed_rate");
  r.mem_accounted = num_or(g, "mem_accounted_bytes");
  r.mem_rss = num_or(g, "mem_rss_bytes");
  for (int i = 0; i < 8; ++i) {
    r.phase[i] = num_or(member(s.line, "phase"), kPhaseKeys[i]);
  }
  for (std::size_t i = 0; i < kRates; ++i) {
    r.rate[i] = num_or(member(s.line, "rates"), kRateKeys[i]);
  }
  return r;
}

/// Mark ranks that are far off the median: queue depth piling up (> 4x
/// median and non-trivial) or execution rate collapsed (< half median
/// while peers are making progress).  Also flag ranks whose accounted
/// bytes sit at or over SFG_MEM_BUDGET (the same per-rank budget the
/// pressure ladder is armed with).
void mark(std::vector<rank_row>& rows) {
  const auto median = [&](double rank_row::*field) {
    std::vector<double> v;
    for (const auto& r : rows) v.push_back(r.*field);
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  const double med_depth = median(&rank_row::queue_depth);
  const double med_rate = median(&rank_row::executed_rate);
  const auto budget = static_cast<double>(obs::mem_budget());
  for (auto& r : rows) {
    const bool deep =
        r.queue_depth > 64 && r.queue_depth > 4 * std::max(med_depth, 1.0);
    const bool slow = med_rate > 0 && r.executed_rate < 0.5 * med_rate;
    r.straggler = rows.size() >= 2 && (deep || slow);
    r.over_budget = budget > 0 && r.mem_accounted >= budget;
  }
}

std::string phase_bar(const double frac[8], int width) {
  std::string bar;
  bar.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < 8; ++i) {
    const int cells =
        static_cast<int>(frac[i] * width + 0.5);
    for (int c = 0; c < cells && static_cast<int>(bar.size()) < width; ++c) {
      bar += kPhaseGlyph[i];
    }
  }
  while (static_cast<int>(bar.size()) < width) bar += ' ';  // unattributed
  return bar;
}

/// ", " -joined ranks of the rows that `pick` selects.
template <typename Pick>
std::string rank_list(const std::vector<rank_row>& rows, Pick pick) {
  std::string out;
  for (const auto& r : rows) {
    if (!pick(r)) continue;
    if (!out.empty()) out += ", ";
    out += std::to_string(r.rank);
  }
  return out;
}

void render(const std::vector<rank_row>& rows, const std::string& dir) {
  std::uint64_t total_exec = 0;
  double exec_rate = 0;
  std::uint64_t max_seq = 0;
  double w[kRates] = {};  // process-wide rates, merged over ranks
  double mem_accounted = 0;
  double mem_rss = 0;
  for (const auto& r : rows) {
    total_exec += static_cast<std::uint64_t>(r.executed);
    exec_rate += r.executed_rate;
    max_seq = std::max(max_seq, r.seq);
    // Process-wide rates are identical modulo sampling skew; take the max
    // so one stalled rank's old sample doesn't zero the display.
    for (std::size_t i = 0; i < kRates; ++i) w[i] = std::max(w[i], r.rate[i]);
    // Per-rank accounted bytes are additive (one ledger per rank); RSS is
    // per process, so take the max across samples.
    mem_accounted += r.mem_accounted;
    mem_rss = std::max(mem_rss, r.mem_rss);
  }
  std::printf("sfg_obs top — %zu rank(s), dir %s, sample seq %llu\n",
              rows.size(), dir.c_str(), static_cast<unsigned long long>(max_seq));
  std::printf(
      "progress: %llu visitors executed, %s/s | mailbox %s pkt/s %sB/s | "
      "cache %s hit/s %s miss/s %s wb/s\n",
      static_cast<unsigned long long>(total_exec),
      human_rate(exec_rate).c_str(), human_rate(w[kPackets]).c_str(),
      human_rate(w[kPacketBytes]).c_str(), human_rate(w[kHits]).c_str(),
      human_rate(w[kMisses]).c_str(), human_rate(w[kWritebacks]).c_str());
  // Comm B/s is transport payload and mailbox B/s above includes packet
  // headers, so their ratio is wire amplification; device-bytes vs
  // requested-bytes is live read amplification.
  std::printf("data:     comm %sB/s", human_rate(w[kCommBytes]).c_str());
  if (w[kCommBytes] > 0 && w[kPacketBytes] > 0) {
    std::printf(" (wire-amp %.2fx)", w[kPacketBytes] / w[kCommBytes]);
  }
  std::printf(" | io req %sB/s dev-rd %sB/s dev-wr %sB/s",
              human_rate(w[kReqBytes]).c_str(), human_rate(w[kDevRead]).c_str(),
              human_rate(w[kDevWrite]).c_str());
  if (w[kReqBytes] > 0 && w[kDevRead] > 0) {
    std::printf(" (read-amp %.2fx)", w[kDevRead] / w[kReqBytes]);
  }
  std::printf("\n");
  // A '!' after a rank below flags accounted bytes at or over the budget.
  if (mem_accounted > 0 || mem_rss > 0) {
    std::printf("mem:      accounted %sB rss %sB",
                human_rate(mem_accounted).c_str(), human_rate(mem_rss).c_str());
    if (mem_rss > 0) {
      std::printf(" (%.0f%% covered)", 100.0 * mem_accounted / mem_rss);
    }
    const std::string over =
        rank_list(rows, [](const rank_row& r) { return r.over_budget; });
    if (!over.empty()) std::printf(" | OVER BUDGET (!): rank %s", over.c_str());
    std::printf("\n");
  }
  std::printf(
      "phase glyphs: V visit  S scan  K pack  F flush  P poll  T term  "
      "I io  . idle\n");
  std::printf("%5s %9s %9s %6s %10s %9s %8s  %-24s\n", "rank", "depth",
              "inflight", "epoch", "executed", "exec/s", "mem", "phase");
  for (const auto& r : rows) {
    char mem_col[16];
    std::snprintf(mem_col, sizeof mem_col, "%s%c",
                  human_rate(r.mem_accounted).c_str(),
                  r.over_budget ? '!' : ' ');
    std::printf("%4d%c %9.0f %9.0f %6.0f %10.0f %9s %8s  %-24s\n", r.rank,
                r.straggler ? '*' : ' ', r.queue_depth, r.inflight, r.epoch,
                r.executed, human_rate(r.executed_rate).c_str(), mem_col,
                phase_bar(r.phase, 24).c_str());
  }
  const std::string stragglers =
      rank_list(rows, [](const rank_row& r) { return r.straggler; });
  if (!stragglers.empty()) {
    std::printf("stragglers (*): rank %s — queue piling up or execution "
                "rate far below median\n",
                stragglers.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int run_top(const std::string& dir, std::size_t interval_ms, bool once) {
  for (;;) {
    std::vector<rank_row> rows;
    for (const ts_sample& s : read_ts_dir(dir)) rows.push_back(to_row(s));
    mark(rows);
    if (once) {
      if (rows.empty()) {
        return fail_view("no sfg_ts_rank*.jsonl samples in " + dir);
      }
      render(rows, dir);
      return 0;
    }
    std::printf("\033[2J\033[H");  // clear + home
    if (rows.empty()) {
      std::printf("sfg_obs top: waiting for sfg_ts_rank*.jsonl in %s ...\n",
                  dir.c_str());
      std::fflush(stdout);
    } else {
      render(rows, dir);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace sfg::obs_tool
