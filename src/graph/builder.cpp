#include "graph/builder.hpp"

#include <algorithm>
#include <unordered_map>

#include "gen/generators.hpp"
#include "obs/mem.hpp"
#include "sort/sample_sort.hpp"

namespace sfg::graph {

namespace {

using gen::by_src_dst;
using gen::edge64;

/// One owner's report of a local source: sent to the vertex's directory
/// rank and, for a split vertex, replicated to every rank.
struct owner_report {
  std::uint64_t global_id;
  std::uint64_t locator_bits;  ///< (reporting rank, its slot)
  std::uint64_t count;         ///< edges in the reporter's slice
};

/// Ascending (gid, owner): the owner rank is a locator's top bits.
bool by_gid_owner(const owner_report& a, const owner_report& b) {
  return a.global_id != b.global_id ? a.global_id < b.global_id
                                    : a.locator_bits < b.locator_bits;
}

/// Wire records for sink discovery.
struct dir_request {
  std::uint64_t global_id;
};
struct dir_reply {
  std::uint64_t global_id;
  std::uint64_t locator_bits;
};

/// Drop duplicate edges across rank boundaries.  Requires a globally
/// sorted, locally deduplicated edge list.  Uses each rank's pre-drop last
/// element so chains of ranks holding only one repeated value collapse
/// correctly.
void dedup_across_boundaries(runtime::comm& c, std::vector<edge64>& edges) {
  struct last_info {
    edge64 last{};
    std::uint32_t has = 0;
  };
  last_info mine;
  if (!edges.empty()) {
    mine.last = edges.back();
    mine.has = 1;
  }
  const auto lasts = c.all_gather(mine);
  // Nearest lower rank that had elements.
  for (int q = c.rank() - 1; q >= 0; --q) {
    if (lasts[static_cast<std::size_t>(q)].has == 0) continue;
    const edge64 prev_last = lasts[static_cast<std::size_t>(q)].last;
    std::size_t drop = 0;
    while (drop < edges.size() && edges[drop] == prev_last) ++drop;
    if (drop > 0) edges.erase(edges.begin(), edges.begin() + static_cast<std::ptrdiff_t>(drop));
    break;
  }
}

/// edge_list placement (paper §III-A1): global sample sort, deduplication,
/// then exactly floor/ceil(|E|/p) edges per rank.
std::vector<edge64> place_sorted_chunks(runtime::comm& c,
                                        std::vector<edge64> edges,
                                        bool remove_duplicates) {
  edges = sort::sample_sort(c, std::move(edges), by_src_dst{});
  if (remove_duplicates) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    dedup_across_boundaries(c, edges);
  }
  return sort::rebalance_even(c, std::move(edges));
}

/// dbh/hdrf/sne placement: every rank gathers the cleaned stream, sorts
/// and deduplicates it identically, runs the deterministic place() pass
/// (partitioner.hpp) and keeps its own edges.  O(|E|) scratch per rank.
std::vector<edge64> place_replicated(runtime::comm& c,
                                     std::vector<edge64> edges,
                                     const graph_build_config& cfg) {
  std::vector<edge64> stream =
      c.all_gatherv(std::span<const edge64>(edges), nullptr);
  edges.clear();
  edges.shrink_to_fit();
  // Charged to builder_scratch so `sfg_obs mem` attributes the spike to
  // construction; the tracker releases it when placement returns.
  obs::mem_tracker scratch_mem{obs::mem_subsystem::builder_scratch};
  scratch_mem.set(stream.capacity() * sizeof(edge64));
  std::sort(stream.begin(), stream.end(), by_src_dst{});
  if (cfg.remove_duplicates) {
    stream.erase(std::unique(stream.begin(), stream.end()), stream.end());
  }
  const std::vector<int> owner =
      make_partitioner(cfg.partitioner)->place(stream, c.size());
  scratch_mem.set(stream.capacity() * sizeof(edge64) +
                  owner.capacity() * sizeof(int));
  // Count first, so the kept edges are allocated once at their final size.
  edges.reserve(static_cast<std::size_t>(
      std::count(owner.begin(), owner.end(), c.rank())));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (owner[i] == c.rank()) edges.push_back(stream[i]);
  }
  return edges;
}

}  // namespace

partition_blueprint build_partition(runtime::comm& c,
                                    std::vector<edge64> edges,
                                    const graph_build_config& cfg) {
  const int p = c.size();
  const int rank = c.rank();

  // ---- phase 1: normalize the raw edge list -------------------------------
  if (cfg.undirected) gen::symmetrize(edges);
  if (cfg.remove_self_loops) {
    std::erase_if(edges, [](const edge64& e) { return e.src == e.dst; });
  }

  // ---- phase 2: placement, the only per-scheme step -----------------------
  // Either way this rank ends up holding its edges sorted by (src, dst).
  edges = cfg.partitioner.kind == partitioner_kind::edge_list
              ? place_sorted_chunks(c, std::move(edges), cfg.remove_duplicates)
              : place_replicated(c, std::move(edges), cfg);

  partition_blueprint bp;
  bp.rank = rank;
  bp.p = p;
  bp.scheme = cfg.partitioner.kind;
  bp.total_edges = c.all_reduce(static_cast<std::uint64_t>(edges.size()),
                                std::plus<>());

  // ---- phase 3: local sources (run-length over the sorted edges) ----------
  std::vector<std::uint64_t> src_count;
  for (const auto& e : edges) {
    if (bp.slot_global_id.empty() || bp.slot_global_id.back() != e.src) {
      bp.slot_global_id.push_back(e.src);
      src_count.push_back(0);
    }
    ++src_count.back();
  }
  bp.num_sources = bp.slot_global_id.size();

  // ---- phase 4: owner exchange at the directory ---------------------------
  // Every owner reports each local source to its directory rank, which
  // sorts the reports by (gid, owner): the min owner's locator is the
  // master and the directory entry, the slice lengths sum to the global
  // degree, and a vertex with two or more owners is split.
  std::unordered_map<std::uint64_t, std::uint64_t> directory;
  {
    std::vector<std::vector<owner_report>> reports(static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < bp.num_sources; ++i) {
      const std::uint64_t gid = bp.slot_global_id[i];
      reports[static_cast<std::size_t>(directory_rank(gid, p))].push_back(
          {gid, vertex_locator(rank, i).bits(), src_count[i]});
    }
    std::vector<owner_report> held;
    for (const auto& batch : c.all_to_allv(reports)) {
      held.insert(held.end(), batch.begin(), batch.end());
    }
    std::sort(held.begin(), held.end(), by_gid_owner);
    directory.reserve(held.size());
    std::vector<owner_report> split_reports;
    for (std::size_t i = 0, j = 0; i < held.size(); i = j) {
      while (j < held.size() && held[j].global_id == held[i].global_id) ++j;
      directory.emplace(held[i].global_id, held[i].locator_bits);
      if (j - i > 1) {
        split_reports.insert(split_reports.end(), held.begin() + i,
                             held.begin() + j);
      }
    }

    // Replicate every split vertex's reports; each rank folds them into
    // the identical split table, ascending by gid.
    auto all_split =
        c.all_gatherv(std::span<const owner_report>(split_reports), nullptr);
    std::sort(all_split.begin(), all_split.end(), by_gid_owner);
    for (std::size_t i = 0; i < all_split.size();) {
      split_entry e;
      e.global_id = all_split[i].global_id;
      e.locator_bits = all_split[i].locator_bits;
      for (; i < all_split.size() && all_split[i].global_id == e.global_id;
           ++i) {
        e.global_degree += all_split[i].count;
        e.owners.push_back(
            vertex_locator::from_bits(all_split[i].locator_bits).owner());
      }
      bp.split_table.push_back(std::move(e));
    }
  }

  // ---- phase 5: slot metadata for sources ---------------------------------
  // Sources and the split table both ascend by gid: a split vertex's slot
  // reads its master locator and global degree from the table.
  bp.csr_offsets.resize(bp.num_sources + 1, 0);
  bp.slot_locator_bits.resize(bp.num_sources);
  bp.slot_degree.resize(bp.num_sources);
  std::uint64_t mastered_sources = 0;
  auto split = bp.split_table.cbegin();
  for (std::size_t i = 0; i < bp.num_sources; ++i) {
    bp.csr_offsets[i + 1] = bp.csr_offsets[i] + src_count[i];
    const std::uint64_t gid = bp.slot_global_id[i];
    while (split != bp.split_table.cend() && split->global_id < gid) ++split;
    const bool is_split =
        split != bp.split_table.cend() && split->global_id == gid;
    bp.slot_locator_bits[i] =
        is_split ? split->locator_bits : vertex_locator(rank, i).bits();
    bp.slot_degree[i] = is_split ? split->global_degree : src_count[i];
    if (vertex_locator::from_bits(bp.slot_locator_bits[i]).owner() == rank) {
      ++mastered_sources;
    }
  }

  // ---- phase 6: target relabel + sink discovery ---------------------------
  // Distinct targets, then one lookup round; unknown ids become sinks
  // owned (and slotted) at their directory rank.
  std::vector<std::uint64_t> distinct_targets;
  distinct_targets.reserve(edges.size());
  for (const auto& e : edges) distinct_targets.push_back(e.dst);
  std::sort(distinct_targets.begin(), distinct_targets.end());
  distinct_targets.erase(
      std::unique(distinct_targets.begin(), distinct_targets.end()),
      distinct_targets.end());

  std::vector<std::vector<dir_request>> requests(static_cast<std::size_t>(p));
  for (const auto t : distinct_targets) {
    requests[static_cast<std::size_t>(directory_rank(t, p))].push_back({t});
  }
  const auto incoming_requests = c.all_to_allv(requests);

  std::vector<std::uint64_t> sink_ids;  // sinks slotted at this rank
  std::vector<std::vector<dir_reply>> replies(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) {
    for (const auto& req : incoming_requests[static_cast<std::size_t>(s)]) {
      auto it = directory.find(req.global_id);
      if (it == directory.end()) {
        // First sighting of a pure sink: slot it locally after sources.
        const std::uint64_t slot = bp.num_sources + sink_ids.size();
        const vertex_locator loc(rank, slot);
        it = directory.emplace(req.global_id, loc.bits()).first;
        sink_ids.push_back(req.global_id);
      }
      replies[static_cast<std::size_t>(s)].push_back(
          {req.global_id, it->second});
    }
  }
  const auto incoming_replies = c.all_to_allv(replies);

  std::unordered_map<std::uint64_t, std::uint64_t> target_locator;
  target_locator.reserve(distinct_targets.size());
  for (const auto& batch : incoming_replies) {
    for (const auto& rep : batch) {
      target_locator.emplace(rep.global_id, rep.locator_bits);
    }
  }

  bp.num_sinks = sink_ids.size();
  for (const auto gid : sink_ids) {
    bp.slot_global_id.push_back(gid);
    bp.slot_locator_bits.push_back(
        vertex_locator(rank, bp.slot_global_id.size() - 1).bits());
    bp.slot_degree.push_back(0);
  }

  // Adjacency: rewrite targets to locator bits, sorted within each row
  // (weights, when requested, travel with their edge through the sort).
  bp.adj_bits.resize(edges.size());
  if (cfg.make_weights) bp.adj_weight.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    bp.adj_bits[i] = target_locator.at(edges[i].dst);
    if (cfg.make_weights) {
      bp.adj_weight[i] =
          edge_weight_of(edges[i].src, edges[i].dst, cfg.max_weight);
    }
  }
  for (std::size_t s = 0; s < bp.num_sources; ++s) {
    const auto lo = static_cast<std::ptrdiff_t>(bp.csr_offsets[s]);
    const auto hi = static_cast<std::ptrdiff_t>(bp.csr_offsets[s + 1]);
    if (!cfg.make_weights) {
      std::sort(bp.adj_bits.begin() + lo, bp.adj_bits.begin() + hi);
    } else {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> row;
      row.reserve(static_cast<std::size_t>(hi - lo));
      for (auto i = lo; i < hi; ++i) {
        row.emplace_back(bp.adj_bits[static_cast<std::size_t>(i)],
                         bp.adj_weight[static_cast<std::size_t>(i)]);
      }
      std::sort(row.begin(), row.end());
      for (auto i = lo; i < hi; ++i) {
        bp.adj_bits[static_cast<std::size_t>(i)] =
            row[static_cast<std::size_t>(i - lo)].first;
        bp.adj_weight[static_cast<std::size_t>(i)] =
            row[static_cast<std::size_t>(i - lo)].second;
      }
    }
  }

  bp.total_vertices = c.all_reduce(
      mastered_sources + static_cast<std::uint64_t>(bp.num_sinks),
      std::plus<>());

  // ---- phase 7: ghost selection (paper §IV-B) ------------------------------
  if (cfg.num_ghosts > 0) {
    std::unordered_map<std::uint64_t, std::uint64_t> remote_in_degree;
    for (const auto bits : bp.adj_bits) {
      if (vertex_locator::from_bits(bits).owner() != rank) {
        ++remote_in_degree[bits];
      }
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cand;  // (count, bits)
    cand.reserve(remote_in_degree.size());
    for (const auto& [bits, count] : remote_in_degree) {
      if (count >= cfg.ghost_min_local_degree) cand.emplace_back(count, bits);
    }
    std::sort(cand.begin(), cand.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    if (cand.size() > cfg.num_ghosts) cand.resize(cfg.num_ghosts);
    bp.ghost_locator_bits.reserve(cand.size());
    for (const auto& [count, bits] : cand) bp.ghost_locator_bits.push_back(bits);
  }

  // ---- phase 8: persist this rank's directory shard ------------------------
  bp.directory.assign(directory.begin(), directory.end());
  std::sort(bp.directory.begin(), bp.directory.end());

  return bp;
}

}  // namespace sfg::graph
