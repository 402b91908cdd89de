#include "graph/partitioner.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "obs/mem.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace sfg::graph {

namespace {

using gen::edge64;

/// Dense [0, n) indices for the stream's vertex ids, so per-vertex state
/// (degrees, replica masks) lives in flat arrays instead of per-edge hash
/// probes into 64-bit id space.
struct vertex_index {
  std::unordered_map<std::uint64_t, std::uint32_t> id_to_idx;

  explicit vertex_index(std::span<const edge64> stream) {
    id_to_idx.reserve(stream.size());
    for (const auto& e : stream) {
      id_to_idx.try_emplace(e.src,
                            static_cast<std::uint32_t>(id_to_idx.size()));
      id_to_idx.try_emplace(e.dst,
                            static_cast<std::uint32_t>(id_to_idx.size()));
    }
  }

  [[nodiscard]] std::uint32_t of(std::uint64_t id) const {
    return id_to_idx.at(id);
  }
  [[nodiscard]] std::size_t size() const { return id_to_idx.size(); }
};

/// Word-packed per-vertex rank-membership bitmap (replica sets).
class rank_sets {
 public:
  rank_sets(std::size_t vertices, int p)
      : words_((static_cast<std::size_t>(p) + 63) / 64),
        bits_(vertices * words_, 0) {}

  [[nodiscard]] bool contains(std::uint32_t v, int r) const {
    return (bits_[v * words_ + static_cast<std::size_t>(r) / 64] >>
            (static_cast<unsigned>(r) % 64)) &
           1u;
  }
  void insert(std::uint32_t v, int r) {
    bits_[v * words_ + static_cast<std::size_t>(r) / 64] |=
        std::uint64_t{1} << (static_cast<unsigned>(r) % 64);
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

// ---------------------------------------------------------------------------
// edge_list: contiguous floor/ceil chunks of the sorted stream.  Matches
// sort::rebalance_even exactly (first |E| mod p ranks take one extra), so
// this pass and the builder's distributed sort agree edge for edge.
// ---------------------------------------------------------------------------
class edge_list_partitioner final : public edge_partitioner {
 public:
  [[nodiscard]] partitioner_kind kind() const noexcept override {
    return partitioner_kind::edge_list;
  }

  [[nodiscard]] std::vector<int> place(std::span<const edge64> stream,
                                       int p) const override {
    const std::uint64_t total = stream.size();
    const std::uint64_t base = total / static_cast<std::uint64_t>(p);
    const std::uint64_t extra = total % static_cast<std::uint64_t>(p);
    std::vector<int> out(stream.size());
    std::size_t i = 0;
    for (int r = 0; r < p; ++r) {
      const std::uint64_t take =
          base + (static_cast<std::uint64_t>(r) < extra ? 1 : 0);
      for (std::uint64_t k = 0; k < take; ++k) out[i++] = r;
    }
    assert(i == out.size());
    return out;
  }
};

// ---------------------------------------------------------------------------
// DBH: hash by the lower-degree endpoint.  A hub's edges scatter with its
// (many, low-degree) neighbors, so the hub replicates while leaves stay
// whole — the theoretically grounded answer to power-law degree skew.
// Ties break toward the smaller vertex id so both directions of an
// undirected edge land on the same rank.
// ---------------------------------------------------------------------------
class dbh_partitioner final : public edge_partitioner {
 public:
  [[nodiscard]] partitioner_kind kind() const noexcept override {
    return partitioner_kind::dbh;
  }

  [[nodiscard]] std::vector<int> place(std::span<const edge64> stream,
                                       int p) const override {
    std::unordered_map<std::uint64_t, std::uint64_t> degree;
    degree.reserve(stream.size());
    for (const auto& e : stream) {
      ++degree[e.src];
      ++degree[e.dst];
    }
    std::vector<int> out(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto [u, v] = stream[i];
      const std::uint64_t du = degree[u];
      const std::uint64_t dv = degree[v];
      const std::uint64_t pick =
          du != dv ? (du < dv ? u : v) : std::min(u, v);
      out[i] = static_cast<int>(util::splitmix64(pick) %
                                static_cast<std::uint64_t>(p));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// HDRF: streaming greedy.  For edge (u, v), score every rank by
//   C_rep(q) = g(u, q) + g(v, q)    with g(x, q) = [x on q] * (1 + 1-θ(x))
//   C_bal(q) = λ * (maxload - load(q)) / (1 + maxload - minload)
// where θ(x) = δ(x) / (δ(u) + δ(v)) uses *partial* (seen-so-far) degrees.
// The 1-θ term prefers re-replicating the higher-degree endpoint — hubs
// spread, leaves consolidate — and λ trades that against balance.
// ---------------------------------------------------------------------------
class hdrf_partitioner final : public edge_partitioner {
 public:
  explicit hdrf_partitioner(double lambda) : lambda_(lambda) {}

  [[nodiscard]] partitioner_kind kind() const noexcept override {
    return partitioner_kind::hdrf;
  }

  [[nodiscard]] std::vector<int> place(std::span<const edge64> stream,
                                       int p) const override {
    const vertex_index vid(stream);
    std::vector<std::uint64_t> pdeg(vid.size(), 0);
    rank_sets replicas(vid.size(), p);
    std::vector<std::uint64_t> load(static_cast<std::size_t>(p), 0);
    std::uint64_t maxload = 0;
    std::uint64_t minload = 0;

    std::vector<int> out(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint32_t u = vid.of(stream[i].src);
      const std::uint32_t v = vid.of(stream[i].dst);
      ++pdeg[u];
      ++pdeg[v];
      const double sum = static_cast<double>(pdeg[u] + pdeg[v]);
      const double theta_u = static_cast<double>(pdeg[u]) / sum;
      const double theta_v = 1.0 - theta_u;
      const double denom =
          1.0 + static_cast<double>(maxload) - static_cast<double>(minload);

      int best = 0;
      double best_score = -1.0;
      for (int q = 0; q < p; ++q) {
        double score = lambda_ *
                       (static_cast<double>(maxload) -
                        static_cast<double>(load[static_cast<std::size_t>(q)])) /
                       denom;
        if (replicas.contains(u, q)) score += 1.0 + (1.0 - theta_u);
        if (replicas.contains(v, q)) score += 1.0 + (1.0 - theta_v);
        if (score > best_score) {
          best_score = score;
          best = q;
        }
      }
      out[i] = best;
      replicas.insert(u, best);
      replicas.insert(v, best);
      const std::uint64_t l = ++load[static_cast<std::size_t>(best)];
      maxload = std::max(maxload, l);
      minload = *std::min_element(load.begin(), load.end());
    }
    return out;
  }

 private:
  double lambda_;
};

// ---------------------------------------------------------------------------
// SNE: fill ranks one at a time to capacity ceil(|E|/p) by expanding a
// boundary vertex set.  Arriving edges touching the boundary are taken
// immediately (and their endpoints join the boundary); cold edges wait in
// a bounded FIFO cache, from which the oldest edge is evicted as a fresh
// seed when the cache overflows.  When a rank reaches capacity the
// boundary resets and the next rank starts expanding from the cache.
// ---------------------------------------------------------------------------
class sne_partitioner final : public edge_partitioner {
 public:
  explicit sne_partitioner(std::uint64_t cache_edges)
      : cache_edges_(cache_edges) {}

  [[nodiscard]] partitioner_kind kind() const noexcept override {
    return partitioner_kind::sne;
  }

  [[nodiscard]] std::vector<int> place(std::span<const edge64> stream,
                                       int p) const override {
    const std::uint64_t total = stream.size();
    if (total == 0) return {};
    const std::uint64_t cap =
        util::div_ceil(total, static_cast<std::uint64_t>(p));
    const std::uint64_t cache_cap =
        cache_edges_ > 0 ? cache_edges_
                         : std::max<std::uint64_t>(256, cap / 4);

    std::vector<int> out(stream.size(), 0);
    std::vector<char> done(stream.size(), 0);
    std::unordered_set<std::uint64_t> boundary;
    std::deque<std::uint64_t> worklist;  // boundary vertices to expand
    // Pending (cached) edges, and an endpoint index into them.  Stale
    // entries (already-assigned edges) are skipped at use.
    std::deque<std::size_t> fifo;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> incident;
    std::uint64_t pending = 0;

    // Ledger charge (mem_subsystem::partitioner_cache): the fixed
    // assignment arrays plus a per-pending-edge estimate for the FIFO +
    // endpoint index (one fifo slot, two incident slots).  Quantized so
    // the per-edge sync is one compare until the estimate crosses a
    // 4 KiB boundary; released when place() returns.
    obs::mem_tracker cache_mem{obs::mem_subsystem::partitioner_cache};
    const std::size_t fixed_bytes =
        out.capacity() * sizeof(int) + done.capacity();
    const auto sync_mem = [&]() noexcept {
      const std::size_t bytes =
          fixed_bytes + pending * 3 * sizeof(std::size_t);
      cache_mem.set((bytes + 4095) & ~std::size_t{4095});
    };
    sync_mem();

    int k = 0;
    std::uint64_t count = 0;  // edges on rank k so far

    auto assign = [&](std::size_t i) {
      done[i] = 1;
      out[i] = k;
      ++count;
      for (const std::uint64_t x : {stream[i].src, stream[i].dst}) {
        if (boundary.insert(x).second) worklist.push_back(x);
      }
      if (count >= cap && k + 1 < p) {
        ++k;
        count = 0;
        boundary.clear();
        worklist.clear();
      }
    };

    auto expand = [&] {
      while (!worklist.empty()) {
        const std::uint64_t x = worklist.front();
        worklist.pop_front();
        const auto it = incident.find(x);
        if (it == incident.end()) continue;
        for (const std::size_t i : it->second) {
          if (!done[i]) {
            assign(i);
            --pending;
          }
        }
        incident.erase(it);
      }
    };

    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (boundary.contains(stream[i].src) ||
          boundary.contains(stream[i].dst)) {
        assign(i);
        expand();
        sync_mem();
        continue;
      }
      fifo.push_back(i);
      incident[stream[i].src].push_back(i);
      incident[stream[i].dst].push_back(i);
      ++pending;
      sync_mem();
      if (pending > cache_cap) {
        while (!fifo.empty() && done[fifo.front()]) fifo.pop_front();
        if (!fifo.empty()) {
          const std::size_t seed = fifo.front();
          fifo.pop_front();
          assign(seed);
          --pending;
          expand();
        }
      }
    }
    while (!fifo.empty()) {
      const std::size_t i = fifo.front();
      fifo.pop_front();
      if (!done[i]) {
        assign(i);
        --pending;
        expand();
      }
    }
    assert(pending == 0);
    return out;
  }

 private:
  std::uint64_t cache_edges_;
};

}  // namespace

const char* partitioner_name(partitioner_kind k) {
  switch (k) {
    case partitioner_kind::edge_list:
      return "edge_list";
    case partitioner_kind::dbh:
      return "dbh";
    case partitioner_kind::hdrf:
      return "hdrf";
    case partitioner_kind::sne:
      return "sne";
  }
  return "?";
}

std::optional<partitioner_kind> parse_partitioner(std::string_view name) {
  for (const partitioner_kind k : kAllPartitioners) {
    if (name == partitioner_name(k)) return k;
  }
  return std::nullopt;
}

std::unique_ptr<edge_partitioner> make_partitioner(
    const partitioner_options& opt) {
  switch (opt.kind) {
    case partitioner_kind::edge_list:
      return std::make_unique<edge_list_partitioner>();
    case partitioner_kind::dbh:
      return std::make_unique<dbh_partitioner>();
    case partitioner_kind::hdrf:
      return std::make_unique<hdrf_partitioner>(opt.hdrf_lambda);
    case partitioner_kind::sne:
      return std::make_unique<sne_partitioner>(opt.sne_cache_edges);
  }
  return nullptr;
}

}  // namespace sfg::graph
