#include "runtime/termination.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "runtime/runtime.hpp"
#include "term_detectors.hpp"

namespace sfg::runtime {
namespace {

constexpr int kCtrlTag = 100;
constexpr int kDataTag = 1;

/// Drive a detector to completion over a rank's poll loop, processing both
/// control and (counted) data messages.  `work` is invoked on each data
/// message and may send more data; returns the final (sent, recv) counts.
template <typename Detector, typename WorkFn>
std::pair<std::uint64_t, std::uint64_t> drive(comm& c, Detector& det,
                                              std::uint64_t initial_sent,
                                              WorkFn&& work) {
  std::uint64_t sent = initial_sent;
  std::uint64_t recv = 0;
  message m;
  while (true) {
    bool any = false;
    while (c.try_recv(m)) {
      any = true;
      if (m.tag == kCtrlTag) {
        if constexpr (std::is_same_v<Detector, tree_termination> ||
                      std::is_same_v<Detector, safra_termination>) {
          det.on_message(m);
        }
        // oracle has no messages; control tag unused.
      } else {
        ++recv;
        sent += work(m);
      }
    }
    const bool idle = !any && c.inbox_empty();
    if (det.poll(sent, recv, idle)) break;
  }
  return {sent, recv};
}

class TerminationP : public ::testing::TestWithParam<int> {};

TEST_P(TerminationP, TreeDetectsWithNoWork) {
  launch(GetParam(), [](comm& c) {
    tree_termination det(c, kCtrlTag);
    const auto [sent, recv] =
        drive(c, det, 0, [](const message&) { return 0; });
    EXPECT_EQ(sent, 0u);
    EXPECT_EQ(recv, 0u);
    EXPECT_TRUE(det.finished());
  });
}

TEST_P(TerminationP, TreeDetectsAfterRing) {
  // Each rank sends one message around a ring; each receipt spawns no
  // further work.  All sent == all received at termination.
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    c.send_value((c.rank() + 1) % p, kDataTag, 1);
    const auto [sent, recv] =
        drive(c, det, 1, [](const message&) { return 0; });
    EXPECT_EQ(sent, 1u);
    EXPECT_EQ(recv, 1u);
  });
}

TEST_P(TerminationP, TreeDetectsWithCascadingWork) {
  // Receipt of a message with ttl > 0 spawns a new message with ttl - 1 to
  // a rotating destination: a shrinking cascade that must fully drain
  // before the detector may fire.
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 20);  // ttl = 20
      initial = 1;
    }
    std::uint64_t processed_ttl_sum = 0;
    const auto [sent, recv] = drive(c, det, initial, [&](const message& m) {
      const int ttl = m.as<int>();
      processed_ttl_sum += static_cast<std::uint64_t>(ttl);
      if (ttl > 0) {
        c.send_value((c.rank() + 3) % p, kDataTag, ttl - 1);
        return 1;
      }
      return 0;
    });
    // Global invariant: total sent == total recv == 21 messages.
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, 21u);
    EXPECT_EQ(total_recv, 21u);
  });
}

TEST_P(TerminationP, SafraDetectsWithNoWork) {
  launch(GetParam(), [](comm& c) {
    safra_termination det(c, kCtrlTag);
    const auto [sent, recv] =
        drive(c, det, 0, [](const message&) { return 0; });
    EXPECT_EQ(sent, 0u);
    EXPECT_EQ(recv, 0u);
    EXPECT_TRUE(det.finished());
  });
}

TEST_P(TerminationP, SafraDetectsAfterRing) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    safra_termination det(c, kCtrlTag);
    c.send_value((c.rank() + 1) % p, kDataTag, 1);
    const auto [sent, recv] =
        drive(c, det, 1, [](const message&) { return 0; });
    EXPECT_EQ(sent, 1u);
    EXPECT_EQ(recv, 1u);
  });
}

TEST_P(TerminationP, SafraDetectsWithCascadingWork) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    safra_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 20);
      initial = 1;
    }
    const auto [sent, recv] = drive(c, det, initial, [&](const message& m) {
      const int ttl = m.as<int>();
      if (ttl > 0) {
        c.send_value((c.rank() + 3) % p, kDataTag, ttl - 1);
        return 1;
      }
      return 0;
    });
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, 21u);
    EXPECT_EQ(total_recv, 21u);
  });
}

TEST_P(TerminationP, SafraMatchesTreeTotals) {
  // Identical cascade under both message-based detectors: both must
  // drain exactly the same global message count before firing.
  const int p = GetParam();
  std::uint64_t totals[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    launch(p, [&, mode](comm& c) {
      std::uint64_t initial = 0;
      if (c.rank() == 0) {
        c.send_value(p / 2, kDataTag, 9);
        initial = 1;
      }
      auto work = [&](const message& m) {
        const int ttl = m.as<int>();
        if (ttl > 0) {
          c.send_value((c.rank() + 1) % p, kDataTag, ttl - 1);
          return 1;
        }
        return 0;
      };
      std::uint64_t recv_total = 0;
      if (mode == 0) {
        tree_termination det(c, kCtrlTag);
        recv_total = drive(c, det, initial, work).second;
      } else {
        safra_termination det(c, kCtrlTag);
        recv_total = drive(c, det, initial, work).second;
      }
      const auto total = c.all_reduce(recv_total, std::plus<>());
      if (c.rank() == 0) totals[mode] = total;
      c.barrier();
    });
  }
  EXPECT_EQ(totals[0], 10u);
  EXPECT_EQ(totals[1], 10u);
}

TEST_P(TerminationP, OracleDetectsWithNoWork) {
  launch(GetParam(), [](comm& c) {
    shared_term_oracle det(c);
    const auto [sent, recv] =
        drive(c, det, 0, [](const message&) { return 0; });
    EXPECT_EQ(sent, 0u);
    EXPECT_EQ(recv, 0u);
  });
}

TEST_P(TerminationP, OracleMatchesTreeOnCascade) {
  // Run the same cascade twice, once under each detector; both must drain
  // exactly the same number of messages.
  const int p = GetParam();
  for (int mode = 0; mode < 2; ++mode) {
    std::uint64_t grand_total = 0;
    launch(p, [p, mode, &grand_total](comm& c) {
      std::uint64_t initial = 0;
      if (c.rank() == 0) {
        c.send_value(p / 2, kDataTag, 12);
        initial = 1;
      }
      auto work = [&](const message& m) {
        const int ttl = m.as<int>();
        if (ttl > 0) {
          c.send_value((c.rank() + 1) % p, kDataTag, ttl - 1);
          return 1;
        }
        return 0;
      };
      std::uint64_t recv_total = 0;
      if (mode == 0) {
        tree_termination det(c, kCtrlTag);
        recv_total = drive(c, det, initial, work).second;
      } else {
        shared_term_oracle det(c);
        recv_total = drive(c, det, initial, work).second;
      }
      const auto total = c.all_reduce(recv_total, std::plus<>());
      if (c.rank() == 0) grand_total = total;
      c.barrier();
    });
    EXPECT_EQ(grand_total, 13u) << "mode=" << mode;
  }
}

TEST_P(TerminationP, TreeRunsMultipleWaves) {
  // With real work in flight, the detector cannot finish in a single wave:
  // the four-counter rule requires two *stable* waves.
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 5);
      initial = 1;
    }
    drive(c, det, initial, [&](const message& m) {
      const int ttl = m.as<int>();
      if (ttl > 0) {
        c.send_value((c.rank() + 1) % p, kDataTag, ttl - 1);
        return 1;
      }
      return 0;
    });
    if (c.rank() == 0) {
      EXPECT_GE(det.waves_completed(), 2u);
    }
    c.barrier();
  });
}

/// Like drive(), but hostile: every control message is held back for one
/// poll round and then delivered to the detector TWICE — the at-least-once,
/// delayed delivery a faulty transport produces.  A detector whose control
/// protocol is not idempotent per sequence number either deadlocks (wave
/// state reset mid-collection) or terminates early (double-counted child
/// reports / twin Safra tokens).
template <typename Detector, typename WorkFn>
std::pair<std::uint64_t, std::uint64_t> drive_hostile(comm& c, Detector& det,
                                                      std::uint64_t initial_sent,
                                                      WorkFn&& work) {
  std::uint64_t sent = initial_sent;
  std::uint64_t recv = 0;
  std::vector<message> held;
  message m;
  while (true) {
    bool any = false;
    for (auto& h : held) {
      det.on_message(h);
      det.on_message(h);  // replay
    }
    const bool had_held = !held.empty();
    held.clear();
    while (c.try_recv(m)) {
      any = true;
      if (m.tag == kCtrlTag) {
        held.push_back(m);  // delay to the next round
      } else {
        ++recv;
        sent += work(m);
      }
    }
    const bool idle = !any && !had_held && held.empty() && c.inbox_empty();
    if (det.poll(sent, recv, idle)) break;
  }
  return {sent, recv};
}

TEST_P(TerminationP, TreeToleratesDuplicatedDelayedControl) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    tree_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 20);
      initial = 1;
    }
    const auto [sent, recv] =
        drive_hostile(c, det, initial, [&](const message& m) {
          const int ttl = m.as<int>();
          if (ttl > 0) {
            c.send_value((c.rank() + 3) % p, kDataTag, ttl - 1);
            return 1;
          }
          return 0;
        });
    // Same global invariant as the clean-transport cascade: the replayed
    // wave_req / wave_report / done messages must all be absorbed.
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, 21u);
    EXPECT_EQ(total_recv, 21u);
    EXPECT_TRUE(det.finished());
  });
}

TEST_P(TerminationP, SafraToleratesDuplicatedDelayedControl) {
  const int p = GetParam();
  launch(p, [p](comm& c) {
    safra_termination det(c, kCtrlTag);
    std::uint64_t initial = 0;
    if (c.rank() == 0) {
      c.send_value(p - 1, kDataTag, 20);
      initial = 1;
    }
    const auto [sent, recv] =
        drive_hostile(c, det, initial, [&](const message& m) {
          const int ttl = m.as<int>();
          if (ttl > 0) {
            c.send_value((c.rank() + 3) % p, kDataTag, ttl - 1);
            return 1;
          }
          return 0;
        });
    // A replayed token would put two tokens in circulation and corrupt
    // the global deficit; the round-number dedup must drop it.
    const auto total_sent = c.all_reduce(sent, std::plus<>());
    const auto total_recv = c.all_reduce(recv, std::plus<>());
    EXPECT_EQ(total_sent, 21u);
    EXPECT_EQ(total_recv, 21u);
    EXPECT_TRUE(det.finished());
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, TerminationP,
                         ::testing::Values(1, 2, 3, 4, 8, 13, 16));

}  // namespace
}  // namespace sfg::runtime
