#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>

#include "obs/phase.hpp"

namespace sfg::obs {

namespace {

/// One phase self-time segment, parsed back from a span fragment.
struct seg_rec {
  std::uint64_t t0, t1;
  std::uint32_t ph;
};

/// One packet-delivery marker (mbox_recv).
struct recv_rec {
  std::uint64_t ts;
  int src;
  std::uint64_t seq;
};

struct rank_data {
  int rank = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::vector<seg_rec> segs;    ///< sorted by t0 (non-overlapping per rank)
  std::vector<recv_rec> recvs;  ///< sorted by ts
  std::uint64_t begin_ts = 0;   ///< last trav_begin marker; 0 = none
  std::uint64_t end_ts = 0;     ///< last trav_end marker; 0 = none
};

/// One link of the computed chain (backward order while building).
struct chain_seg {
  int rank;
  const char* kind;
  std::string wire;  ///< non-empty overrides kind (wire blame key)
  std::uint64_t t0, t1;
  int src = -1, dst = -1;
};

constexpr auto kPollPh = static_cast<std::uint32_t>(phase::poll);
constexpr auto kIdlePh = static_cast<std::uint32_t>(phase::idle);
constexpr auto kTermPh = static_cast<std::uint32_t>(phase::term);

const char* phase_kind_name(std::uint32_t ph) {
  return ph < kPhaseCount ? phase_name(static_cast<phase>(ph)) : "unknown";
}

std::uint64_t num_u64(const json& o, std::string_view key) {
  const json* v = o.find(key);
  if (v == nullptr || !v->is_number()) return 0;
  return static_cast<std::uint64_t>(v->as_double());
}

/// Latest segment on `rd` starting strictly before `t`; nullptr if none.
const seg_rec* seg_before(const rank_data& rd, std::uint64_t t) {
  auto it = std::lower_bound(
      rd.segs.begin(), rd.segs.end(), t,
      [](const seg_rec& s, std::uint64_t x) { return s.t0 < x; });
  if (it == rd.segs.begin()) return nullptr;
  return &*std::prev(it);
}

}  // namespace

json critpath_analyze(const json& rank_spans) {
  if (!rank_spans.is_array() || rank_spans.size() == 0) return {};

  std::vector<rank_data> ranks;
  // (sender, receiver, seq) -> flush timestamp.  The seq is assigned per
  // (sender, next-hop) pair by the mailbox, so the key is exact.
  std::map<std::tuple<int, int, std::uint64_t>, std::uint64_t> send_ts;
  // level -> (latest barrier-exit marker across ranks, bottom_up).
  std::map<std::uint64_t, std::pair<std::uint64_t, bool>> levels;

  for (std::size_t i = 0; i < rank_spans.size(); ++i) {
    const json& f = rank_spans.at(i);
    if (!f.is_object()) continue;
    rank_data rd;
    rd.rank = static_cast<int>(num_u64(f, "rank"));
    rd.recorded = num_u64(f, "recorded");
    rd.dropped = num_u64(f, "dropped");
    const json* spans = f.find("spans");
    if (spans != nullptr && spans->is_array()) {
      for (std::size_t j = 0; j < spans->size(); ++j) {
        const json& sp = spans->at(j);
        const json* k = sp.find("k");
        if (k == nullptr || !k->is_string()) continue;
        const std::string& kind = k->as_string();
        const std::uint64_t t0 = num_u64(sp, "t0");
        const std::uint64_t t1 = num_u64(sp, "t1");
        const std::uint64_t a = num_u64(sp, "a");
        const std::uint64_t b = num_u64(sp, "b");
        if (kind == "phase_seg") {
          if (t1 > t0) rd.segs.push_back({t0, t1, static_cast<std::uint32_t>(a)});
        } else if (kind == "mbox_send") {
          send_ts[{rd.rank, static_cast<int>(a), b}] = t0;
        } else if (kind == "mbox_recv") {
          rd.recvs.push_back({t0, static_cast<int>(a), b});
        } else if (kind == "bfs_level") {
          auto& lv = levels[a];
          if (t0 >= lv.first) lv = {t0, b != 0};
        } else if (kind == "trav_begin") {
          rd.begin_ts = t0;  // last one wins: rings span traversals
        } else if (kind == "trav_end") {
          rd.end_ts = t0;
        }
      }
    }
    std::sort(rd.segs.begin(), rd.segs.end(),
              [](const seg_rec& x, const seg_rec& y) { return x.t0 < y.t0; });
    std::sort(rd.recvs.begin(), rd.recvs.end(),
              [](const recv_rec& x, const recv_rec& y) { return x.ts < y.ts; });
    ranks.push_back(std::move(rd));
  }

  // Traversal window: earliest of the ranks' last begin markers to the
  // latest end marker; the walk starts on the last rank to leave.
  std::uint64_t t_begin = 0, t_end = 0;
  const rank_data* end_rank = nullptr;
  for (const rank_data& rd : ranks) {
    if (rd.begin_ts == 0 || rd.end_ts == 0) continue;
    if (t_begin == 0 || rd.begin_ts < t_begin) t_begin = rd.begin_ts;
    if (rd.end_ts > t_end) {
      t_end = rd.end_ts;
      end_rank = &rd;
    }
  }
  if (end_rank == nullptr || t_end <= t_begin) return {};

  std::map<int, const rank_data*> by_rank;
  for (const rank_data& rd : ranks) by_rank[rd.rank] = &rd;

  // Backward walk.  Every step emits the interval [new cur_t, cur_t] (as
  // one or two chain segments), so the chain is a contiguous partition of
  // [t_begin, t_end] by construction.
  std::vector<chain_seg> chain;
  auto emit = [&](int rk, const char* kind, std::uint64_t lo, std::uint64_t hi,
                  int src = -1, int dst = -1) {
    if (hi <= lo) return;
    chain_seg cs{rk, kind, {}, lo, hi, src, dst};
    if (src >= 0) {
      cs.wire = "wire ";
      cs.wire += std::to_string(src);
      cs.wire += "->";
      cs.wire += std::to_string(dst);
    }
    chain.push_back(std::move(cs));
  };

  int cur_rank = end_rank->rank;
  std::uint64_t cur_t = t_end;
  constexpr int kMaxSteps = 1000000;
  for (int step = 0; cur_t > t_begin && step < kMaxSteps; ++step) {
    const auto rd_it = by_rank.find(cur_rank);
    if (rd_it == by_rank.end()) break;  // unreachable with sane fragments
    const rank_data& rd = *rd_it->second;
    const seg_rec* s = seg_before(rd, cur_t);
    if (s == nullptr || s->t1 <= t_begin) {
      emit(cur_rank, "untracked", t_begin, cur_t);
      cur_t = t_begin;
      break;
    }
    if (s->t1 < cur_t) {  // gap between recorded segments (or ring drop)
      const std::uint64_t lo = std::max(s->t1, t_begin);
      emit(cur_rank, "untracked", lo, cur_t);
      cur_t = lo;
      continue;
    }
    const std::uint64_t lo = std::max(s->t0, t_begin);
    if (s->ph == kPollPh || s->ph == kIdlePh) {
      // Waiting in the poll loop: follow the latest matched delivery in
      // this window back to its sender.
      auto rit = std::upper_bound(
          rd.recvs.begin(), rd.recvs.end(), cur_t,
          [](std::uint64_t x, const recv_rec& r) { return x < r.ts; });
      bool jumped = false;
      while (rit != rd.recvs.begin()) {
        const recv_rec& r = *--rit;
        if (r.ts < lo) break;
        const auto sit = send_ts.find({r.src, cur_rank, r.seq});
        if (sit == send_ts.end() || by_rank.find(r.src) == by_rank.end()) {
          continue;
        }
        const std::uint64_t st = sit->second;
        if (st >= r.ts || st < t_begin) continue;
        emit(cur_rank, phase_kind_name(s->ph), r.ts, cur_t);
        emit(r.src, "wire", st, r.ts, r.src, cur_rank);
        cur_rank = r.src;
        cur_t = st;
        jumped = true;
        break;
      }
      if (jumped) continue;
    } else if (s->ph == kTermPh) {
      // Collective wait: jump to the last rank to enter the overlapping
      // term window (the straggler).  Our own segment always overlaps, so
      // a "jump" to ourselves degrades to plain local attribution below.
      int best_rank = cur_rank;
      std::uint64_t best_t0 = s->t0;
      for (const rank_data& other : ranks) {
        const seg_rec* os = seg_before(other, cur_t);
        if (os == nullptr || os->ph != kTermPh) continue;
        if (os->t1 <= lo) continue;  // does not overlap the window
        if (os->t0 > best_t0) {
          best_t0 = os->t0;
          best_rank = other.rank;
        }
      }
      if (best_rank != cur_rank && best_t0 > lo && best_t0 < cur_t) {
        emit(cur_rank, "term", best_t0, cur_t);
        cur_rank = best_rank;
        cur_t = best_t0;
        continue;
      }
    }
    emit(cur_rank, phase_kind_name(s->ph), lo, cur_t);
    cur_t = lo;
  }
  if (cur_t > t_begin) emit(cur_rank, "untracked", t_begin, cur_t);
  std::reverse(chain.begin(), chain.end());

  const std::uint64_t wall = t_end - t_begin;
  std::uint64_t covered = 0;
  for (const chain_seg& cs : chain) covered += cs.t1 - cs.t0;

  json section = json::object();
  section["schema"] = "sfg-critpath/1";
  section["wall_us"] = wall;
  section["t0_us"] = t_begin;
  section["t1_us"] = t_end;
  section["coverage"] = static_cast<double>(covered) / static_cast<double>(wall);

  json rank_arr = json::array();
  for (const rank_data& rd : ranks) {
    json e = json::object();
    e["rank"] = static_cast<std::int64_t>(rd.rank);
    e["recorded"] = rd.recorded;
    e["dropped"] = rd.dropped;
    rank_arr.push_back(std::move(e));
  }
  section["ranks"] = std::move(rank_arr);

  if (!levels.empty()) {
    json lv_arr = json::array();
    for (const auto& [level, lv] : levels) {
      json e = json::object();
      e["level"] = level;
      e["ts_us"] = lv.first;
      e["bottom_up"] = lv.second;
      lv_arr.push_back(std::move(e));
    }
    section["levels"] = std::move(lv_arr);
  }

  json seg_arr = json::array();
  for (const chain_seg& cs : chain) {
    const std::uint64_t dur = cs.t1 - cs.t0;
    json e = json::object();
    e["rank"] = static_cast<std::int64_t>(cs.rank);
    e["kind"] = cs.kind;
    e["t0_us"] = cs.t0;
    e["t1_us"] = cs.t1;
    e["dur_us"] = dur;
    e["frac"] = static_cast<double>(dur) / static_cast<double>(wall);
    if (cs.src >= 0) {
      e["src"] = static_cast<std::int64_t>(cs.src);
      e["dst"] = static_cast<std::int64_t>(cs.dst);
    }
    seg_arr.push_back(std::move(e));
  }
  section["segments"] = std::move(seg_arr);

  // Ranked blame: chain time grouped by (rank, kind); wire segments group
  // per channel so `sfg_obs why` can name the dominant pair.
  std::map<std::pair<int, std::string>, std::uint64_t> blame;
  for (const chain_seg& cs : chain) {
    const std::string key = cs.wire.empty() ? std::string(cs.kind) : cs.wire;
    blame[{cs.rank, key}] += cs.t1 - cs.t0;
  }
  std::vector<std::pair<std::pair<int, std::string>, std::uint64_t>> ranked(
      blame.begin(), blame.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.second > y.second; });
  json blame_arr = json::array();
  for (const auto& [key, dur] : ranked) {
    json e = json::object();
    e["rank"] = static_cast<std::int64_t>(key.first);
    e["kind"] = key.second;
    e["dur_us"] = dur;
    e["frac"] = static_cast<double>(dur) / static_cast<double>(wall);
    blame_arr.push_back(std::move(e));
  }
  section["blame"] = std::move(blame_arr);
  return section;
}

bool critpath_validate(const json& section, std::vector<std::string>* errors) {
  bool ok = true;
  auto fail = [&](std::string msg) {
    ok = false;
    if (errors != nullptr) errors->push_back(std::move(msg));
  };

  if (!section.is_object()) {
    fail("critpath: section is not an object");
    return false;
  }
  const json* schema = section.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "sfg-critpath/1") {
    fail("critpath: missing or wrong schema tag (want sfg-critpath/1)");
    return false;
  }
  const std::uint64_t wall = num_u64(section, "wall_us");
  const std::uint64_t t0 = num_u64(section, "t0_us");
  const std::uint64_t t1 = num_u64(section, "t1_us");
  if (wall == 0 || t1 <= t0 || t1 - t0 != wall) {
    fail("critpath: window invalid (wall_us must equal t1_us - t0_us > 0)");
    return false;
  }

  const json* segs = section.find("segments");
  if (segs == nullptr || !segs->is_array() || segs->size() == 0) {
    fail("critpath: no segments");
    return false;
  }
  std::uint64_t prev_t1 = t0;
  std::uint64_t sum_dur = 0;
  double sum_frac = 0.0;
  for (std::size_t i = 0; i < segs->size(); ++i) {
    const json& e = segs->at(i);
    const std::string at = "segment " + std::to_string(i);
    if (!e.is_object() || e.find("rank") == nullptr ||
        e.find("kind") == nullptr) {
      fail("critpath: " + at + " missing rank/kind");
      continue;
    }
    const std::uint64_t st0 = num_u64(e, "t0_us");
    const std::uint64_t st1 = num_u64(e, "t1_us");
    const std::uint64_t dur = num_u64(e, "dur_us");
    if (st1 < st0 || st0 < t0 || st1 > t1) {
      fail("critpath: " + at + " outside the traversal window");
    }
    if (dur != st1 - st0) {
      fail("critpath: " + at + " dur_us disagrees with its timestamps");
    }
    if (st0 != prev_t1) {
      fail("critpath: " + at + " breaks the chain (t0_us " +
           std::to_string(st0) + " != previous t1_us " +
           std::to_string(prev_t1) + ")");
    }
    prev_t1 = st1;
    const json* frac = e.find("frac");
    const double want = static_cast<double>(dur) / static_cast<double>(wall);
    if (frac == nullptr || !frac->is_number() ||
        std::fabs(frac->as_double() - want) > 1e-6) {
      fail("critpath: " + at + " frac disagrees with dur_us / wall_us");
    }
    sum_dur += dur;
    sum_frac += want;
  }
  if (prev_t1 != t1) {
    fail("critpath: chain does not reach the traversal end (last t1_us " +
         std::to_string(prev_t1) + " != " + std::to_string(t1) + ")");
  }
  if (sum_frac > 1.0 + 1e-6) {
    fail("critpath: blame fractions sum past 1.0 of the wall (" +
         std::to_string(sum_frac) + ")");
  }
  const double coverage = static_cast<double>(sum_dur) / static_cast<double>(wall);
  if (coverage < 0.9) {
    fail("critpath: chain covers only " + std::to_string(coverage * 100.0) +
         "% of the wall (need >= 90%)");
  }
  const json* cov = section.find("coverage");
  if (cov == nullptr || !cov->is_number() ||
      std::fabs(cov->as_double() - coverage) > 1e-6) {
    fail("critpath: coverage field disagrees with the segment sum");
  }

  const json* blame = section.find("blame");
  if (blame == nullptr || !blame->is_array() || blame->size() == 0) {
    fail("critpath: no blame table");
    return ok;
  }
  std::uint64_t blame_dur = 0;
  std::uint64_t prev_dur = ~std::uint64_t{0};
  for (std::size_t i = 0; i < blame->size(); ++i) {
    const json& e = blame->at(i);
    if (!e.is_object() || e.find("rank") == nullptr ||
        e.find("kind") == nullptr) {
      fail("critpath: blame entry " + std::to_string(i) + " missing rank/kind");
      continue;
    }
    const std::uint64_t dur = num_u64(e, "dur_us");
    if (dur > prev_dur) {
      fail("critpath: blame entries not ranked by duration");
    }
    prev_dur = dur;
    blame_dur += dur;
  }
  if (blame_dur != sum_dur) {
    fail("critpath: blame durations do not total the chain segments");
  }
  return ok;
}

}  // namespace sfg::obs
