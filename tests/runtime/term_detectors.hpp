/// \file term_detectors.hpp
/// Test-only termination detectors: two independent implementations of
/// runtime::tree_termination's poll contract (runtime/termination.hpp)
/// that termination_test.cpp cross-checks the tree detector against.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/comm.hpp"

namespace sfg::runtime {

/// Dijkstra–Safra ring-token termination detection — a second
/// message-based detector from the classic literature the paper cites
/// ([12] Mattern's survey).  A token circulates the ring accumulating
/// each rank's (sent - received) deficit; a rank that received work since
/// it last forwarded the token taints it black.  The initiator declares
/// termination when a white token returns with a zero global deficit and
/// the initiator itself stayed white.  Integer-only, O(1) state per rank,
/// one token message per rank per round.
///
/// An independent implementation to cross-check tree_termination against
/// (rings cost p hops per wave but need no tree fan-in state).
class safra_termination {
 public:
  safra_termination(comm& c, int control_tag);

  /// Feed one control message (tag must equal control_tag).
  void on_message(const message& m);

  /// Same contract as tree_termination::poll.
  bool poll(std::uint64_t local_sent, std::uint64_t local_recv,
            bool locally_idle);

  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] std::uint32_t rounds_completed() const noexcept {
    return rounds_;
  }

 private:
  enum class msg_kind : std::uint8_t { token = 1, done = 2 };
  enum class color : std::uint8_t { white = 0, black = 1 };

  struct token_msg {
    msg_kind kind;
    color col;
    std::uint32_t round;  ///< sequence number: dedups transport replays
    std::int64_t deficit;
  };

  void forward_token(std::uint64_t local_sent, std::uint64_t local_recv);

  comm* comm_;
  int tag_;
  bool finished_ = false;
  bool have_token_ = false;
  bool initial_token_ = true;  ///< initiator's pre-round pseudo-token
  token_msg token_{msg_kind::token, color::white, 0, 0};
  color my_color_ = color::white;
  std::uint64_t last_seen_recv_ = 0;
  std::uint32_t last_token_round_ = 0;  ///< highest round accepted here
  std::uint32_t emitted_round_ = 0;     ///< initiator: rounds started
  std::uint32_t rounds_ = 0;
};

/// Shared-memory termination oracle for *tests only*: publishes each
/// rank's counters in a shared atomic array and scans for a stable
/// all-idle, sent==received snapshot (two identical scans).  This is a
/// heuristic cross-check for tree_termination, not a protocol — it
/// exploits the in-process address space, which real MPI would not have.
class shared_term_oracle {
 public:
  /// Collective constructor: all ranks of `c` must construct together.
  explicit shared_term_oracle(comm& c);

  /// Same contract as tree_termination::poll.
  bool poll(std::uint64_t local_sent, std::uint64_t local_recv,
            bool locally_idle);

 private:
  struct shared_state;

  comm* comm_;
  std::shared_ptr<shared_state> state_;
  bool finished_ = false;
  bool candidate_ = false;
  std::uint64_t candidate_sent_ = 0;
  std::uint64_t candidate_recv_ = 0;
};

}  // namespace sfg::runtime
