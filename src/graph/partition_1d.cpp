#include "graph/partition_1d.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace sfg::graph {

graph_1d::graph_1d(runtime::comm& c, std::vector<gen::edge64> edges,
                   std::uint64_t num_vertices, const config& cfg)
    : comm_(&c),
      rank_(c.rank()),
      p_(c.size()),
      num_vertices_(num_vertices),
      block_stride_(util::div_ceil(num_vertices,
                                   static_cast<std::uint64_t>(c.size()))) {
  block_begin_ = static_cast<std::uint64_t>(rank_) * block_stride_;
  const std::uint64_t block_end =
      std::min(num_vertices_, block_begin_ + block_stride_);
  block_size_ = block_begin_ < block_end
                    ? static_cast<std::size_t>(block_end - block_begin_)
                    : 0;

  if (cfg.undirected) gen::symmetrize(edges);
  if (cfg.remove_self_loops) {
    std::erase_if(edges, [](const gen::edge64& e) { return e.src == e.dst; });
  }

  // Shuffle every edge to the owner of its source.
  std::vector<std::vector<gen::edge64>> outgoing(static_cast<std::size_t>(p_));
  for (const auto& e : edges) {
    outgoing[static_cast<std::size_t>(e.src / block_stride_)].push_back(e);
  }
  std::vector<gen::edge64> local;
  for (auto& run : c.all_to_allv(std::move(outgoing))) {
    local.insert(local.end(), run.begin(), run.end());
  }
  std::sort(local.begin(), local.end(), gen::by_src_dst{});
  if (cfg.remove_duplicates) {
    local.erase(std::unique(local.begin(), local.end()), local.end());
  }
  total_edges_ = c.all_reduce(static_cast<std::uint64_t>(local.size()),
                              std::plus<>());

  // CSR over the full vertex block (isolated vertices get empty rows).
  csr_offsets_.assign(block_size_ + 1, 0);
  for (const auto& e : local) {
    ++csr_offsets_[static_cast<std::size_t>(e.src - block_begin_) + 1];
  }
  for (std::size_t i = 1; i <= block_size_; ++i) {
    csr_offsets_[i] += csr_offsets_[i - 1];
  }
  adj_bits_.resize(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    adj_bits_[i] = locate(local[i].dst).bits();
  }
  // `local` is (src, dst)-sorted and locate() is monotone in dst within a
  // row, so each row is already sorted by locator bits... only if owner
  // boundaries preserve order — they do: locator bits = (owner<<48)|off
  // is monotone in dst.  Assert-level check in tests.
}

bool graph_1d::has_local_out_edge(std::size_t s, vertex_locator target) const {
  const auto begin =
      adj_bits_.begin() + static_cast<std::ptrdiff_t>(csr_offsets_[s]);
  const auto end =
      adj_bits_.begin() + static_cast<std::ptrdiff_t>(csr_offsets_[s + 1]);
  return std::binary_search(begin, end, target.bits());
}

}  // namespace sfg::graph
