/// \file sample_sort.hpp
/// Distributed sorting for the edge-list partitioning pipeline.
///
/// The paper's partitioning requires the global edge list "first sorted by
/// the edges' source vertex, then evenly distributed" (§III-A1).  We
/// implement that as a classic sample sort (local sort → regular samples →
/// splitters → all_to_allv redistribution → one merge pass) followed by an
/// exact rebalance that leaves every rank with floor/ceil(N/p) elements —
/// the "evenly partitioned" property the scheme depends on.  Sorting by
/// the full (src, dst) key lets splitters fall *inside* a hub's adjacency
/// list, which is precisely how hubs end up split across consecutive
/// partitions.
///
/// Elements order by a key projection (radix_sort.hpp): the local sort is
/// the radix kernel, and the splitters and the merge compare projected
/// keys.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "runtime/comm.hpp"
#include "sort/radix_sort.hpp"

namespace sfg::sort {

/// Merge sorted runs in one pass.  On equal keys the earlier run's element
/// comes first, as successive stable merges would place it.
template <typename T, typename Key>
std::vector<T> merge_runs(const std::vector<std::vector<T>>& runs, Key key) {
  using words = decltype(key_words(key(std::declval<const T&>())));
  struct head {
    const T* at;
    const T* end;
    words k;
  };
  std::vector<head> live;
  std::size_t total = 0;
  for (const auto& run : runs) {
    total += run.size();
    if (!run.empty()) {
      live.push_back({run.data(), run.data() + run.size(),
                      key_words(key(run.front()))});
    }
  }
  std::vector<T> out;
  out.reserve(total);
  while (live.size() > 1) {
    std::size_t m = 0;
    for (std::size_t r = 1; r < live.size(); ++r) {
      if (live[r].k < live[m].k) m = r;
    }
    out.push_back(*live[m].at);
    if (++live[m].at == live[m].end) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(m));
    } else {
      live[m].k = key_words(key(*live[m].at));
    }
  }
  if (!live.empty()) out.insert(out.end(), live[0].at, live[0].end);
  return out;
}

/// Globally sort the union of all ranks' `local` vectors by `key`.  On
/// return, each rank holds a contiguous run of the sorted sequence, in rank
/// order (rank 0 smallest).  Sizes after the splitter exchange are
/// approximately balanced; use rebalance_even() for exact balance.  T must
/// be trivially copyable; every rank must pass the same projection.
template <typename T, typename Key>
std::vector<T> sample_sort(runtime::comm& c, std::vector<T> local, Key key) {
  const int p = c.size();
  radix_sort(local, key);
  if (p == 1) return local;
  const key_less<Key> less{key};

  // Regular sampling: p samples per rank (oversampled p*p total) keeps
  // splitter error within a factor ~2 of perfect balance even for skewed
  // inputs; the exact rebalance removes the rest.
  std::vector<T> samples;
  const std::size_t want = static_cast<std::size_t>(p);
  samples.reserve(want);
  if (!local.empty()) {
    for (std::size_t k = 0; k < want; ++k) {
      samples.push_back(local[(k * local.size()) / want]);
    }
  }
  std::vector<T> all_samples =
      c.all_gatherv(std::span<const T>(samples), nullptr);
  radix_sort(all_samples, key);

  // p-1 splitters at regular positions of the gathered sample.
  std::vector<T> splitters;
  splitters.reserve(static_cast<std::size_t>(p - 1));
  if (!all_samples.empty()) {
    for (int k = 1; k < p; ++k) {
      splitters.push_back(
          all_samples[(static_cast<std::size_t>(k) * all_samples.size()) /
                      static_cast<std::size_t>(p)]);
    }
  }

  // Partition the local run by splitters (bucket d = keys in
  // [splitter[d-1], splitter[d]) ) and exchange.  The local run is freed
  // once copied out, and the outgoing runs once delivered (this rank's own
  // bucket moves through the exchange), so at most two copies of this
  // rank's share are live at a time.
  std::vector<std::vector<T>> outgoing(static_cast<std::size_t>(p));
  if (splitters.empty()) {
    outgoing[0] = std::move(local);
  } else {
    auto it = local.begin();
    for (int d = 0; d < p; ++d) {
      auto hi = d + 1 < p
                    ? std::lower_bound(it, local.end(),
                                       splitters[static_cast<std::size_t>(d)],
                                       less)
                    : local.end();
      outgoing[static_cast<std::size_t>(d)].assign(it, hi);
      it = hi;
    }
    local = {};
  }
  const auto incoming = c.all_to_allv(std::move(outgoing));
  outgoing = {};
  return merge_runs(incoming, key);
}

/// Redistribute so every rank holds exactly floor/ceil(N/p) elements while
/// preserving global order.  (Rank r's run still precedes rank r+1's.)
template <typename T>
std::vector<T> rebalance_even(runtime::comm& c, std::vector<T> local) {
  const int p = c.size();
  if (p == 1) return local;
  const auto my_count = static_cast<std::uint64_t>(local.size());
  const std::uint64_t my_begin = c.exscan_sum(my_count);
  const std::uint64_t total = c.all_reduce(my_count, std::plus<>());

  // Rank r owns global indices [owner_begin(r), owner_begin(r+1)) under
  // the floor/ceil split; this rank's run [my_begin, my_end) cuts into
  // one contiguous piece per overlapping owner.
  const std::uint64_t base = total / static_cast<std::uint64_t>(p);
  const std::uint64_t extra = total % static_cast<std::uint64_t>(p);
  auto owner_begin = [&](int r) {
    const auto rr = static_cast<std::uint64_t>(r);
    return rr * base + (rr < extra ? rr : extra);
  };
  const std::uint64_t my_end = my_begin + my_count;
  auto piece = [&](int r) {
    const std::uint64_t lo = std::clamp(owner_begin(r), my_begin, my_end);
    const std::uint64_t hi = std::clamp(owner_begin(r + 1), my_begin, my_end);
    return std::span<const T>(local).subspan(
        static_cast<std::size_t>(lo - my_begin),
        static_cast<std::size_t>(hi - lo));
  };

  // Only the other ranks' pieces cross; this rank's own piece is copied
  // once, from `local` into the result.
  const int me = c.rank();
  std::vector<std::vector<T>> outgoing(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    const auto mine = piece(r);
    outgoing[static_cast<std::size_t>(r)].assign(mine.begin(), mine.end());
  }
  const auto incoming = c.all_to_allv(std::move(outgoing));
  outgoing = {};
  std::vector<T> result;
  result.reserve(
      static_cast<std::size_t>(owner_begin(me + 1) - owner_begin(me)));
  for (int s = 0; s < p; ++s) {
    const auto& in = incoming[static_cast<std::size_t>(s)];
    const auto run = s == me ? piece(me) : std::span<const T>(in);
    result.insert(result.end(), run.begin(), run.end());
  }
  return result;
}

/// sample_sort + rebalance_even in one call: globally sorted, exactly
/// evenly partitioned — the precondition for building the edge-list
/// partitioned graph.
template <typename T, typename Key>
std::vector<T> sort_even(runtime::comm& c, std::vector<T> local, Key key) {
  return rebalance_even(c, sample_sort(c, std::move(local), key));
}

}  // namespace sfg::sort
