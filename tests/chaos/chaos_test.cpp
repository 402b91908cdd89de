/// Chaos suite: every visitor algorithm, exercised across a sweep of
/// seeded fault schedules (transport delay / reorder / duplicate, rank
/// stalls, randomized queue configs) and cross-validated against the
/// serial reference.  See chaos_harness.hpp for the reproduction recipe;
/// the short version is that any failure prints SFG_CHAOS_SEED=<n>.
#include "chaos/chaos_harness.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/bfs.hpp"
#include "core/bfs_hybrid.hpp"
#include "core/connected_components.hpp"
#include "core/kcore.hpp"
#include "core/sssp.hpp"
#include "core/test_helpers.hpp"
#include "core/triangles.hpp"
#include "gen/generators.hpp"
#include "graph/distributed_graph.hpp"
#include "mailbox/routed_mailbox.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "reference/serial_graph.hpp"
#include "support/packet_flows.hpp"

namespace sfg::chaos {
namespace {

using core::testing::gather_global;
using gen::edge64;
using graph::build_in_memory_graph;
using runtime::comm;

// Small graphs keep a 32-seed sweep fast; scale-free (R-MAT) so hub
// vertices still get replica chains and heavy traffic.
gen::rmat_config small_rmat(std::uint64_t seed) {
  return {.scale = 6, .edge_factor = 8, .seed = 30 + seed};
}

/// 32-seed BFS fault sweep on a given partitioner.  The general
/// placements (DBH/HDRF) give hubs *scattered* owner chains, so the
/// replica-forwarding path under duplication + reordering exercises
/// chain shapes edge_list can never produce.
void bfs_sweep_on(graph::partitioner_kind kind, std::uint64_t base_seed) {
  const auto rc = small_rmat(1);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  run_sweep({.ranks = 4, .num_seeds = 32, .base_seed = base_seed},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              graph::graph_build_config gcfg{.num_ghosts = 32};
              gcfg.partitioner.kind = kind;
              auto g = build_in_memory_graph(c, mine, gcfg);
              auto result =
                  core::run_bfs(g, g.locate(edges.front().src), s.queue);
              const auto levels = gather_global(c, g, [&](std::size_t slot) {
                return result.state.local(slot).level;
              });
              for (const auto& [gid, level] : levels) {
                ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
              }
            });
}

/// 32-seed k-core fault sweep on a given partitioner.  k-core needs
/// *exact* visitor counts, so this sweep is the sharpest probe of
/// exactly-once delivery under duplication/reordering.
void kcore_sweep_on(graph::partitioner_kind kind, std::uint64_t base_seed) {
  const auto rc = small_rmat(2);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_kcore(ref, 3);
  std::uint64_t expected_size = 0;
  for (const auto a : expected) {
    if (a) ++expected_size;
  }

  run_sweep({.ranks = 4, .num_seeds = 32, .base_seed = base_seed},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              graph::graph_build_config gcfg;
              gcfg.partitioner.kind = kind;
              auto g = build_in_memory_graph(c, mine, gcfg);
              auto result = core::run_kcore(g, 3, s.queue);
              EXPECT_EQ(result.core_size, expected_size);
            });
}

TEST(Chaos, BfsSeedSweep) {
  bfs_sweep_on(graph::partitioner_kind::edge_list, 0xBF5000);
}

TEST(Chaos, BfsSeedSweepDbh) {
  bfs_sweep_on(graph::partitioner_kind::dbh, 0xBF5DB);
}

TEST(Chaos, BfsSeedSweepHdrf) {
  bfs_sweep_on(graph::partitioner_kind::hdrf, 0xBF5'4DF);
}

TEST(Chaos, KcoreSeedSweep) {
  kcore_sweep_on(graph::partitioner_kind::edge_list, 0xC04E);
}

TEST(Chaos, KcoreSeedSweepDbh) {
  kcore_sweep_on(graph::partitioner_kind::dbh, 0xC04'EDB);
}

TEST(Chaos, KcoreSeedSweepHdrf) {
  kcore_sweep_on(graph::partitioner_kind::hdrf, 0xC04'E4D);
}

TEST(Chaos, TriangleSeedSweep) {
  const auto rc = small_rmat(3);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const std::uint64_t expected = reference::serial_triangle_count(ref);

  run_sweep({.ranks = 4, .num_seeds = 32, .base_seed = 0x7A1A},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              auto g = build_in_memory_graph(c, mine, {});
              auto result = core::run_triangle_count(g, s.queue);
              if (c.rank() == 0) {
                EXPECT_EQ(result.total_triangles, expected);
              }
            });
}

TEST(Chaos, SsspSeedSweep) {
  constexpr std::uint32_t kMaxW = 16;
  const auto rc = small_rmat(4);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_sssp(ref, edges.front().src, kMaxW);

  run_sweep({.ranks = 4, .num_seeds = 8, .base_seed = 0x555B},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              graph::graph_build_config gcfg;
              gcfg.make_weights = true;
              gcfg.max_weight = kMaxW;
              auto g = build_in_memory_graph(c, mine, gcfg);
              auto result =
                  core::run_sssp(g, g.locate(edges.front().src), s.queue);
              const auto dist = gather_global(c, g, [&](std::size_t slot) {
                return result.state.local(slot).distance;
              });
              for (const auto& [gid, d] : dist) {
                ASSERT_EQ(d, expected[gid]) << "vertex " << gid;
              }
            });
}

TEST(Chaos, ConnectedComponentsSeedSweep) {
  const auto rc = small_rmat(5);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_components(ref);

  run_sweep({.ranks = 4, .num_seeds = 8, .base_seed = 0xCCC5},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              auto g = build_in_memory_graph(c, mine, {});
              auto result = core::run_connected_components(g, s.queue);
              const auto labels = gather_global(c, g, [&](std::size_t slot) {
                return result.state.local(slot).label_bits;
              });
              // Partition equivalence with the serial labels.
              std::map<std::uint64_t, std::uint64_t> d2s;
              std::map<std::uint64_t, std::uint64_t> s2d;
              for (const auto& [gid, label] : labels) {
                const auto serial = expected[gid];
                const auto [it1, in1] = d2s.emplace(label, serial);
                EXPECT_EQ(it1->second, serial) << "vertex " << gid;
                const auto [it2, in2] = s2d.emplace(serial, label);
                EXPECT_EQ(it2->second, label) << "vertex " << gid;
              }
            });
}

TEST(Chaos, HybridBfsSurvivesFaults) {
  // The level-synchronous hybrid BFS under the full 32-seed fault sweep:
  // transport duplication / delay / reordering plus rank stalls, against
  // the serial reference.  The per-level counting-quiescence protocol has
  // its own failure modes the async queue doesn't (a duplicated claim
  // packet leaking across a level boundary corrupts the NEXT level's
  // counters), so this sweep is the acceptance gate for that protocol.
  //
  // On top of the schedule's own stalls, the on_level hook injects an
  // extra rank stall at EXACTLY the direction-switch level — the moment
  // the traversal flips from top-down claims to bottom-up probes is the
  // most fragile handoff, so that is where the adversary sleeps.
  const auto rc = small_rmat(9);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  run_sweep(
      {.ranks = 4, .num_seeds = 32, .base_seed = 0x4B51D},
      [&](comm& c, const schedule& s) {
        auto mine = slice_edges(edges, c.rank(), c.size());
        graph::graph_build_config gcfg{.num_ghosts = 32};
        auto g = build_in_memory_graph(c, mine, gcfg);

        core::hybrid_bfs_config cfg;
        cfg.mode = core::bfs_mode::hybrid;
        cfg.queue = s.queue;
        bool saw_switch = false;
        cfg.on_level = [&](std::uint64_t level, bool bottom_up,
                           bool switched) {
          (void)level;
          (void)bottom_up;
          if (!switched) return;
          saw_switch = true;
          // Deterministic per (seed, rank): one rank sleeps through the
          // handoff while the others race ahead into the new direction.
          util::chaos_stream at_switch(
              s.seed, 0x51DE ^ static_cast<std::uint64_t>(c.rank()));
          if (at_switch.decide(0.5)) {
            std::this_thread::sleep_for(
                at_switch.duration_up_to(std::chrono::microseconds(200)));
          }
        };
        auto result = core::run_bfs_mode(g, g.locate(edges.front().src), cfg);

        const auto levels = gather_global(c, g, [&](std::size_t slot) {
          return result.state.local(slot).level;
        });
        for (const auto& [gid, level] : levels) {
          ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
        }
        // The sweep must actually exercise the handoff it claims to: the
        // small RMAT is low-diameter, so hybrid always switches.
        EXPECT_TRUE(saw_switch);
        EXPECT_GE(result.direction_switch_level, 0);
      });
}

TEST(Chaos, TransportFaultsAreLive) {
  // Guard against the whole suite silently running fault-free: with
  // duplicate_prob = 1 every raw send must arrive twice, and delayed
  // messages must still all arrive.
  runtime::fault_params fp;
  fp.seed = 7;
  fp.duplicate_prob = 1.0;
  fp.delay_prob = 0.5;
  fp.max_delay = std::chrono::microseconds(200);
  runtime::launch(
      2,
      [&](comm& c) {
        constexpr int kMsgs = 10;
        if (c.rank() == 0) {
          for (int i = 0; i < kMsgs; ++i) c.send_value(1, /*tag=*/5, i);
        }
        c.barrier();
        if (c.rank() == 1) {
          int got = 0;
          runtime::message m;
          // All copies are in flight before the barrier completed; drain
          // until ripe delayed messages stop appearing.
          for (int spin = 0; spin < 10000 && got < 2 * kMsgs; ++spin) {
            while (c.try_recv(m)) ++got;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          EXPECT_EQ(got, 2 * kMsgs);
        }
        c.barrier();
      },
      runtime::net_params{}, fp);
}

TEST(Chaos, MailboxDedupesDuplicatedPackets) {
  // The sweeps above prove end-to-end correctness; this proves the
  // mechanism — duplicated packets reach the mailbox and are dropped by
  // the sequence-number filter, not merely absorbed by algorithm
  // idempotence.
  const auto rc = small_rmat(6);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  runtime::fault_params fp;
  fp.seed = 11;
  fp.duplicate_prob = 0.5;
  runtime::launch(
      4,
      [&](comm& c) {
        auto mine = slice_edges(edges, c.rank(), c.size());
        auto g = build_in_memory_graph(c, mine, {});
        core::queue_config qc;
        qc.aggregation_bytes = 1;  // many packets -> many duplicates
        auto result = core::run_bfs(g, g.locate(edges.front().src), qc);
        (void)result;
        const auto dropped = c.all_reduce(
            result.stats.mailbox.packets_dropped_duplicate, std::plus<>());
        EXPECT_GT(dropped, 0u);
      },
      runtime::net_params{}, fp);
}

TEST(Chaos, PacketFlowsMatchUnderFaults) {
  // Packet-flow conservation under adversarial transport: with tracing
  // on, every packet a flush puts on the wire opens one flow ('s'), and
  // the receiver closes it ('f') once the packet passes dedup — even while
  // the fault schedule duplicates, delays, and reorders packets.  A
  // duplicate that slipped past the sequence window would end some flow
  // twice; a lost packet would leave one open.  Flow ids are salted per
  // mailbox generation, so they stay unique across the sweep's worlds.
  const auto rc = small_rmat(7);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());

  const bool saved_trace = obs::trace_on();
  obs::set_trace_enabled(true);
  obs::trace_clear();

  std::atomic<std::uint64_t> packets_sent{0};
  run_sweep({.ranks = 4, .num_seeds = 4, .base_seed = 0x7'4ACE},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              auto g = build_in_memory_graph(c, mine, {.num_ghosts = 32});
              const auto result =
                  core::run_bfs(g, g.locate(edges.front().src), s.queue);
              packets_sent += result.stats.mailbox.packets_sent;
            });

  EXPECT_EQ(obs::trace_dropped_count(), 0u)
      << "trace buffer overflowed; the conservation check would be invalid";

  const auto flows = test::traced_packet_flows();
  obs::set_trace_enabled(saved_trace);
  obs::trace_clear();

  ASSERT_FALSE(flows.empty()) << "the sweep traced no packet";
  EXPECT_EQ(flows.size(), packets_sent.load())
      << "one flow per packet the mailboxes sent";
  for (const auto& [id, fl] : flows) {
    EXPECT_EQ(fl.starts, 1) << "flow id " << id;
    EXPECT_EQ(fl.ends, 1) << "flow id " << id;
    // A packet always crosses ranks: self-sends never leave the local
    // arena, so sender and receiver rows differ.
    EXPECT_NE(fl.start_pid, fl.end_pid) << "flow id " << id;
  }
}

TEST(Chaos, TimeSeriesSurvivesFaults) {
  // Acceptance gate for the sampler: a faulty 4-rank BFS sweep (delays,
  // duplicates, reordering, stalls) must still leave one well-formed
  // `sfg-timeseries/1` JSONL stream per rank — monotonic seq/ts_us, phase
  // fractions that sum to at most 1, non-negative rates.  This is the
  // same validator that `sfg_obs check --timeseries` runs in CI, so
  // the rules cannot drift between tests and tooling.
  namespace fs = std::filesystem;
  const auto rc = small_rmat(8);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());

  const fs::path dir =
      fs::temp_directory_path() /
      ("sfg_ts_chaos_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::uint32_t saved_interval = obs::ts_interval_ms();
  obs::set_ts_dir(dir.string());
  obs::set_ts_interval_ms(1);  // sample aggressively during the sweep

  run_sweep({.ranks = 4, .num_seeds = 4, .base_seed = 0x75'0BED},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              auto g = build_in_memory_graph(c, mine, {.num_ghosts = 32});
              auto result =
                  core::run_bfs(g, g.locate(edges.front().src), s.queue);
              (void)result;
            });

  obs::set_ts_interval_ms(0);
  for (int r = 0; r < 4; ++r) {
    const std::string path =
        (dir / ("sfg_ts_rank" + std::to_string(r) + ".jsonl")).string();
    ASSERT_TRUE(fs::exists(path)) << path;
    std::vector<std::string> errors;
    EXPECT_TRUE(obs::ts_validate_file(path, &errors))
        << path << ": " << (errors.empty() ? "?" : errors.front());
  }

  obs::ts_clear();
  obs::set_ts_dir(".");
  obs::set_ts_interval_ms(saved_interval);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(Chaos, MemAccountingBalancesUnderFaults) {
  // Conservation law of the memory ledger (DESIGN.md §15): every charge a
  // subsystem takes during a faulty traversal must be released by the
  // time its owner is destroyed — duplicated / delayed / reordered
  // packets included.  A leak would strand a nonzero current after the
  // sweep; a double-release would need the saturating clamp and show up
  // as peak < the bytes we know were held.  The sweep runs the full
  // 32-seed BFS fault schedule, so mailbox arenas, queue buckets, and
  // frontier words all see adversarial traffic while charging.
  const bool saved_metrics = obs::detail::any_on(obs::detail::kMetricsBit);
  obs::set_metrics_enabled(true);
  obs::mem_clear();

  // Baseline per (rank, subsystem): long-lived obs rings owned by the
  // harness may legitimately stay charged across the sweep.
  constexpr int kRanks = 4;
  std::uint64_t baseline[kRanks + 1][obs::kMemSubsystems];
  for (int r = -1; r < kRanks; ++r) {
    for (std::size_t s = 0; s < obs::kMemSubsystems; ++s) {
      baseline[r + 1][s] =
          obs::mem_current(static_cast<obs::mem_subsystem>(s), r);
    }
  }

  const auto rc = small_rmat(1);
  const auto edges = gen::rmat_slice(rc, 0, rc.num_edges());
  const auto ref = reference::serial_graph::from_edges(edges);
  const auto expected = reference::serial_bfs(ref, edges.front().src);

  run_sweep({.ranks = kRanks, .num_seeds = 32, .base_seed = 0x3E3B41},
            [&](comm& c, const schedule& s) {
              auto mine = slice_edges(edges, c.rank(), c.size());
              auto g = build_in_memory_graph(c, mine, {.num_ghosts = 32});
              auto result =
                  core::run_bfs(g, g.locate(edges.front().src), s.queue);
              const auto levels = gather_global(c, g, [&](std::size_t slot) {
                return result.state.local(slot).level;
              });
              for (const auto& [gid, level] : levels) {
                ASSERT_EQ(level, expected[gid]) << "vertex " << gid;
              }
            });

  // Traversal machinery is gone: every subsystem must be back at its
  // baseline on every rank slot, and peaks must dominate currents.  The
  // obs subsystem is exempt from the balance law: flight/span rings are
  // deliberately process-lifetime (the black box must outlive the run),
  // so the sweep's lazily-created per-rank rings stay charged.
  std::uint64_t total_peak = 0;
  for (int r = -1; r < kRanks; ++r) {
    for (std::size_t sub = 0; sub < obs::kMemSubsystems; ++sub) {
      const auto s = static_cast<obs::mem_subsystem>(sub);
      if (s != obs::mem_subsystem::obs) {
        EXPECT_EQ(obs::mem_current(s, r), baseline[r + 1][sub])
            << "rank " << r << " subsystem " << obs::mem_subsystem_name(s)
            << " leaked";
      }
      EXPECT_GE(obs::mem_peak(s, r), obs::mem_current(s, r))
          << "rank " << r << " subsystem " << obs::mem_subsystem_name(s);
      total_peak += obs::mem_peak(s, r);
    }
  }
  // ...and the sweep actually charged something: a BFS that moved real
  // traffic cannot have left every watermark at zero.
  EXPECT_GT(total_peak, 0u);

  obs::mem_clear();
  obs::set_metrics_enabled(saved_metrics);
}

TEST(Chaos, TrafficMatrixConservesRecordsUnderFaults) {
  // Conservation law of the rank x rank traffic matrix (DESIGN.md §12):
  // for every pair (s, d), records originated on s for d equal records
  // delivered on d from s — even while the transport duplicates, delays,
  // and reorders packets.  A duplicated packet that slipped past the
  // mailbox dedup would inflate a delivered cell; a lost record would
  // deflate one.  The per-pair counts are deliberately asymmetric so a
  // transposed or misindexed row cannot cancel out.
  const bool saved_metrics = obs::detail::any_on(obs::detail::kMetricsBit);
  obs::set_metrics_enabled(true);

  struct rec {
    std::uint64_t from, i, pad;
  };
  // Records rank s addresses to rank d (asymmetric, all nonzero).
  const auto pair_records = [](int s, int d) {
    return 8 + (static_cast<std::uint64_t>(s) * 31 +
                static_cast<std::uint64_t>(d) * 7) %
                   17;
  };

  run_sweep(
      {.ranks = 4, .num_seeds = 16, .base_seed = 0x3A781C},
      [&](comm& c, const schedule& s) {
        (void)s;  // the transport already runs the seed's fault schedule
        constexpr int kMailTag = 3;
        const int p = c.size();
        // direct topology: no relays, so after the barrier below every
        // packet has reached its final destination and the matrix is
        // quiescent.  Tiny aggregation budget -> many packets -> many
        // duplicated/reordered packets per sweep.
        mailbox::routed_mailbox mb(c,
                                   {mailbox::topology::direct, 256, kMailTag});
        std::uint64_t expected = 0;
        for (int src = 0; src < p; ++src) {
          expected += pair_records(src, c.rank());
        }
        rec r{static_cast<std::uint64_t>(c.rank()), 0, 0};
        for (int d = 0; d < p; ++d) {
          const std::uint64_t n = pair_records(c.rank(), d);
          for (std::uint64_t i = 0; i < n; ++i) {
            r.i = i;
            mb.send(d, runtime::as_bytes_of(r));
          }
        }
        mb.flush();
        std::uint64_t delivered = 0;
        const auto count = [&](int, std::span<const std::byte> bytes) {
          delivered += bytes.size() / sizeof(rec);
        };
        for (int spin = 0; spin < 200000 && delivered < expected; ++spin) {
          mb.drain_local(count);
          runtime::message m;
          while (c.try_recv(m)) mb.process_packet(m, count);
          std::this_thread::sleep_for(std::chrono::microseconds(10));
        }
        ASSERT_EQ(delivered, expected)
            << "rank " << c.rank() << " never reached quiescence";
        c.barrier();

        // Gather all ranks' sent/delivered rows and check the law.
        const auto& m = mb.matrix();
        const auto all_sent = c.all_gatherv(
            std::span<const std::uint64_t>(m.sent_records), nullptr);
        const auto all_delivered = c.all_gatherv(
            std::span<const std::uint64_t>(m.delivered_records), nullptr);
        ASSERT_EQ(all_sent.size(), static_cast<std::size_t>(p) * p);
        ASSERT_EQ(all_delivered.size(), static_cast<std::size_t>(p) * p);
        for (int src = 0; src < p; ++src) {
          for (int d = 0; d < p; ++d) {
            const auto sent = all_sent[static_cast<std::size_t>(src) * p + d];
            const auto del =
                all_delivered[static_cast<std::size_t>(d) * p + src];
            EXPECT_EQ(sent, pair_records(src, d))
                << "sent_records[" << src << "][" << d << "]";
            EXPECT_EQ(del, sent) << "delivered_records[" << d << "][" << src
                                 << "] != sent_records[" << src << "][" << d
                                 << "]";
          }
        }
      });

  obs::set_metrics_enabled(saved_metrics);
}

TEST(Chaos, ScheduleDerivationIsDeterministic) {
  // The contract behind SFG_CHAOS_SEED: same seed, same schedule.
  for (const std::uint64_t seed : {0ull, 1ull, 0xDEADBEEFull}) {
    const schedule a = make_schedule(seed);
    const schedule b = make_schedule(seed);
    EXPECT_EQ(a.faults.delay_prob, b.faults.delay_prob);
    EXPECT_EQ(a.faults.max_delay, b.faults.max_delay);
    EXPECT_EQ(a.faults.reorder_prob, b.faults.reorder_prob);
    EXPECT_EQ(a.faults.duplicate_prob, b.faults.duplicate_prob);
    EXPECT_EQ(a.faults.stall_prob, b.faults.stall_prob);
    EXPECT_EQ(a.queue.topo, b.queue.topo);
    EXPECT_EQ(a.queue.aggregation_bytes, b.queue.aggregation_bytes);
    EXPECT_EQ(a.queue.batch_size, b.queue.batch_size);
    EXPECT_EQ(a.queue.use_ghosts, b.queue.use_ghosts);
  }
  // ...and the fault knobs are actually hot (a chaos schedule is never
  // accidentally a no-op).
  EXPECT_TRUE(make_schedule(42).faults.enabled());
}

}  // namespace
}  // namespace sfg::chaos
