/// \file micro_queue.cpp
/// Visitor local-queue microbenches: push/pop throughput of the queue
/// behind every traversal (core/local_queue.hpp), per algorithm visitor
/// type.  The default rows (`queue/push_pop/<algo>`) measure the
/// container the visitor type selects — these are the rows
/// tools/sfg_bench_diff gates against bench/baselines/.  The `/heap`
/// rows pin the reference binary heap for an in-report comparison.
///
/// Workload shape: a standing population of 1024 visitors, then
/// batches of 64 pushes + 64 pops per iteration — the queue_config
/// batch_size rhythm of a real traversal, with slowly advancing
/// priorities (BFS frontier levels / SSSP tentative distances).
#include <cstdint>
#include <string>

#include "core/bfs.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/local_queue.hpp"
#include "core/sssp.hpp"
#include "micro_harness.hpp"
#include "util/rng.hpp"

namespace {

using namespace sfg;  // NOLINT: bench-local convenience

constexpr int kBatch = 64;
constexpr int kStanding = 1024;

graph::vertex_locator random_locator(std::uint64_t x) {
  // 8 ranks, 2^20 slots: a realistic locator distribution.
  const std::uint64_t h = util::splitmix64(x);
  return {static_cast<int>(h & 7), (h >> 3) & ((1u << 20) - 1)};
}

core::bfs_visitor make_bfs(std::uint64_t x) {
  // Frontier advances one level per ~1k visitors, +-2 levels of overlap.
  return {random_locator(x), (x >> 10) + (util::splitmix64(~x) % 3),
          random_locator(x + 1).bits()};
}

core::sssp_visitor make_sssp(std::uint64_t x) {
  // Wider spread: tentative distances scatter over ~64 buckets.
  return {random_locator(x), (x >> 8) + (util::splitmix64(~x) % 64),
          random_locator(x + 1).bits()};
}

core::kcore_visitor make_kcore(std::uint64_t x) {
  return {random_locator(x), 4};
}

core::cc_visitor make_cc(std::uint64_t x) {
  return {random_locator(x), random_locator(x * 3 + 1).bits()};
}

template <typename Queue, typename Make>
void bench_queue(micro::suite& s, const std::string& name, Make make) {
  s.run(name, 2.0 * kBatch, [make](std::uint64_t iters) {
    Queue q(core::order_tiebreak::vertex_locality);
    std::uint64_t x = 0;
    std::uint64_t sink = 0;
    for (int i = 0; i < kStanding; ++i) q.push(make(x++));
    for (std::uint64_t it = 0; it < iters; ++it) {
      for (int i = 0; i < kBatch; ++i) q.push(make(x++));
      for (int i = 0; i < kBatch; ++i) {
        sink += q.top().vertex.bits();
        q.pop();
      }
    }
    micro::keep(sink);
  });
}

}  // namespace

int main() {
  micro::suite s("micro_queue",
                 "local visitor queue push/pop (standing population 1024, "
                 "batches of 64) per algorithm visitor type");
  using core::heap_queue;
  using core::local_queue;
  bench_queue<local_queue<core::bfs_visitor>>(s, "queue/push_pop/bfs",
                                              make_bfs);
  bench_queue<local_queue<core::sssp_visitor>>(s, "queue/push_pop/sssp",
                                               make_sssp);
  bench_queue<local_queue<core::kcore_visitor>>(s, "queue/push_pop/kcore",
                                                make_kcore);
  bench_queue<local_queue<core::cc_visitor>>(s, "queue/push_pop/cc", make_cc);
  // Reference heap rows: the same workloads on the binary heap, so one
  // report shows bucket-vs-heap side by side.
  bench_queue<heap_queue<core::bfs_visitor>>(s, "queue/push_pop/bfs/heap",
                                             make_bfs);
  bench_queue<heap_queue<core::sssp_visitor>>(s, "queue/push_pop/sssp/heap",
                                              make_sssp);
  bench_queue<heap_queue<core::kcore_visitor>>(
      s, "queue/push_pop/kcore/heap", make_kcore);
  return 0;
}
