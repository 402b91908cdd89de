/// \file builder_streamed.cpp
/// The replicated-stream construction path for arbitrary partitioners.
///
/// The distributed pipeline in builder.cpp is welded to the edge_list
/// scheme: split vertices fall out of chunk *boundaries*, which only
/// exist when each rank owns one contiguous run of the sorted stream.
/// DBH/HDRF/SNE produce arbitrary (still ascending, possibly gappy)
/// owner sets per vertex, so this path takes the blunt deterministic
/// route instead:
///
///   1. normalize locally, all_gatherv the full edge stream to every rank
///   2. sort + dedup identically everywhere
///   3. run the partitioner pass redundantly (it is a deterministic pure
///      function of the stream — see partitioner.hpp) — zero assignment
///      communication
///   4. every rank derives the complete global layout (per-rank source
///      lists, owner chains, master slots, sink placement, directory)
///      from the same data, then keeps only its own blueprint
///
/// Cost: O(|E|) memory per rank, so this is the correctness-matrix and
/// ablation path, not the external-memory scaling path.  The layout it
/// emits is indistinguishable to distributed_graph from builder.cpp's:
/// slots are sorted distinct local sources then sinks, locators name
/// master (min-owner) slots, and the replicated split table carries every
/// multi-owner vertex's ascending owner chain.
#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "obs/mem.hpp"

namespace sfg::graph {

partition_blueprint build_partition_streamed(runtime::comm& c,
                                             std::vector<gen::edge64> edges,
                                             const graph_build_config& cfg) {
  using gen::by_src_dst;
  using gen::edge64;

  const int p = c.size();
  const int rank = c.rank();

  // ---- phase 1: normalize the raw edge list (locally; gather preserves it)
  if (cfg.undirected) gen::symmetrize(edges);
  if (cfg.remove_self_loops) {
    std::erase_if(edges, [](const edge64& e) { return e.src == e.dst; });
  }

  // ---- phase 2: replicate the stream, identical cleanup on every rank ----
  std::vector<edge64> stream =
      c.all_gatherv(std::span<const edge64>(edges), nullptr);
  edges.clear();
  edges.shrink_to_fit();
  // The replicated stream is this path's O(|E|)-per-rank cost (see the
  // header comment); charge it to the ledger for the life of the build so
  // `sfg_obs mem` attributes construction spikes to builder_scratch, not
  // "other".  Scoped: the tracker's destructor releases at return.
  obs::mem_tracker scratch_mem{obs::mem_subsystem::builder_scratch};
  scratch_mem.set(stream.capacity() * sizeof(edge64));
  std::sort(stream.begin(), stream.end(), by_src_dst{});
  if (cfg.remove_duplicates) {
    stream.erase(std::unique(stream.begin(), stream.end()), stream.end());
  }

  // ---- phase 3: redundant deterministic partitioner pass ------------------
  const auto part = make_partitioner(cfg.partitioner);
  const std::vector<int> owner = part->place(stream, p);
  assert(owner.size() == stream.size());
  scratch_mem.set(stream.capacity() * sizeof(edge64) +
                  owner.capacity() * sizeof(int));

  partition_blueprint bp;
  bp.rank = rank;
  bp.p = p;
  bp.scheme = cfg.partitioner.kind;
  bp.total_edges = stream.size();

  // ---- phase 4: per-rank source lists + per-vertex owner chains -----------
  // The stream is sorted by (src, dst); each rank's subsequence therefore
  // keeps ascending sources, so per-rank run-length gives its sorted
  // distinct source list (== slot order, matching builder.cpp).
  std::vector<std::vector<std::uint64_t>> rank_src_ids(
      static_cast<std::size_t>(p));
  std::vector<std::vector<std::uint64_t>> rank_src_count(
      static_cast<std::size_t>(p));
  std::unordered_map<std::uint64_t, std::vector<int>> owners_of;
  std::unordered_map<std::uint64_t, std::uint64_t> global_degree;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto r = static_cast<std::size_t>(owner[i]);
    auto& ids = rank_src_ids[r];
    if (ids.empty() || ids.back() != stream[i].src) {
      ids.push_back(stream[i].src);
      rank_src_count[r].push_back(0);
    }
    ++rank_src_count[r].back();
    ++global_degree[stream[i].src];
    auto& os = owners_of[stream[i].src];
    if (std::find(os.begin(), os.end(), owner[i]) == os.end()) {
      os.push_back(owner[i]);
    }
  }
  for (auto& [gid, os] : owners_of) std::sort(os.begin(), os.end());

  // ---- phase 5: master locators (min owner, slot on that rank) ------------
  std::unordered_map<std::uint64_t, std::uint64_t> locator_bits_of;
  locator_bits_of.reserve(owners_of.size());
  for (int r = 0; r < p; ++r) {
    const auto& ids = rank_src_ids[static_cast<std::size_t>(r)];
    for (std::size_t slot = 0; slot < ids.size(); ++slot) {
      if (owners_of.at(ids[slot]).front() == r) {
        locator_bits_of[ids[slot]] = vertex_locator(r, slot).bits();
      }
    }
  }

  // ---- phase 6: sinks (never a source anywhere) at their directory rank ---
  std::vector<std::uint64_t> sinks;
  for (const auto& e : stream) {
    if (!owners_of.contains(e.dst)) sinks.push_back(e.dst);
  }
  std::sort(sinks.begin(), sinks.end());
  sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());

  std::vector<std::uint64_t> my_sinks;
  {
    std::vector<std::uint64_t> next_sink_slot(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      next_sink_slot[static_cast<std::size_t>(r)] =
          rank_src_ids[static_cast<std::size_t>(r)].size();
    }
    for (const std::uint64_t gid : sinks) {
      const int d = directory_rank(gid, p);
      locator_bits_of[gid] =
          vertex_locator(d, next_sink_slot[static_cast<std::size_t>(d)]++)
              .bits();
      if (d == rank) my_sinks.push_back(gid);
    }
  }
  bp.total_vertices = owners_of.size() + sinks.size();

  // ---- phase 7: replicated split table (every multi-owner vertex) ---------
  for (const auto& e : stream) {
    // Stream is sorted by src, so each source is visited in one run;
    // take it on first sight to keep the table in ascending gid order.
    if (!bp.split_table.empty() && bp.split_table.back().global_id == e.src) {
      continue;
    }
    const auto& os = owners_of.at(e.src);
    if (os.size() < 2) continue;
    if (!bp.split_table.empty() && bp.split_table.back().global_id > e.src) {
      continue;  // unreachable on sorted input; keeps the invariant obvious
    }
    split_entry se;
    se.global_id = e.src;
    se.locator_bits = locator_bits_of.at(e.src);
    se.global_degree = global_degree.at(e.src);
    se.owners = os;
    bp.split_table.push_back(std::move(se));
  }

  // ---- phase 8: this rank's slots (sources then sinks) --------------------
  const auto& src_ids = rank_src_ids[static_cast<std::size_t>(rank)];
  const auto& src_count = rank_src_count[static_cast<std::size_t>(rank)];
  bp.num_sources = src_ids.size();
  bp.csr_offsets.resize(bp.num_sources + 1, 0);
  for (std::size_t i = 0; i < bp.num_sources; ++i) {
    bp.csr_offsets[i + 1] = bp.csr_offsets[i] + src_count[i];
  }
  bp.slot_global_id = src_ids;
  bp.slot_locator_bits.resize(bp.num_sources);
  bp.slot_degree.resize(bp.num_sources);
  for (std::size_t i = 0; i < bp.num_sources; ++i) {
    bp.slot_locator_bits[i] = locator_bits_of.at(src_ids[i]);
    bp.slot_degree[i] = global_degree.at(src_ids[i]);
  }
  bp.num_sinks = my_sinks.size();
  for (const std::uint64_t gid : my_sinks) {
    bp.slot_global_id.push_back(gid);
    bp.slot_locator_bits.push_back(locator_bits_of.at(gid));
    bp.slot_degree.push_back(0);
  }

  // ---- phase 9: local adjacency, targets relabeled to master locators -----
  bp.adj_bits.reserve(bp.csr_offsets.back());
  if (cfg.make_weights) bp.adj_weight.reserve(bp.csr_offsets.back());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (owner[i] != rank) continue;
    bp.adj_bits.push_back(locator_bits_of.at(stream[i].dst));
    if (cfg.make_weights) {
      bp.adj_weight.push_back(
          edge_weight_of(stream[i].src, stream[i].dst, cfg.max_weight));
    }
  }
  assert(bp.adj_bits.size() == bp.csr_offsets.back());
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

  // ---- phase 10: ghost selection (identical policy to builder.cpp) --------
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
    for (const auto& [count, bits] : cand) {
      bp.ghost_locator_bits.push_back(bits);
    }
  }

  // ---- phase 11: this rank's directory shard ------------------------------
  for (const auto& [gid, bits] : locator_bits_of) {
    if (directory_rank(gid, p) == rank) bp.directory.emplace_back(gid, bits);
  }
  std::sort(bp.directory.begin(), bp.directory.end());

  return bp;
}

}  // namespace sfg::graph
