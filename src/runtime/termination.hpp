/// \file termination.hpp
/// Quiescence (termination) detection for asynchronous traversals — the
/// paper's `global_empty()` (Algorithm 1, line 28), implemented with
/// Mattern's counting method [Mattern 1987] over an asynchronous binary
/// tree reduction of (visitors sent, visitors received), using only
/// non-blocking point-to-point messages.
///
/// Protocol (four-counter / double-wave):
///   * The root starts wave w by sending WAVE_REQ(w) down the tree.
///   * A rank contributes to wave w only when it is *locally idle*; its
///     report aggregates its own exact counters with its children's.
///   * The root compares wave w's totals with wave w-1's: if
///     S(w-1) == R(w-1) == S(w) == R(w), no visitor activity spanned the
///     two waves, so the system is globally quiescent; DONE floods down.
///
/// Control messages may be arbitrarily delayed, reordered, or duplicated
/// by the transport (runtime/fault.hpp).  All state transitions here are
/// idempotent per control-message sequence number: the wave number orders
/// wave_req/wave_report (stale or replayed ones drop; a child's report is
/// counted at most once per wave), and DONE floods down exactly once.
///   * Otherwise the root starts wave w+1.  Checking for non-termination
///     is fully asynchronous; only the final confirmation is "synchronous"
///     in the sense that all queues are already empty (paper §V).
#pragma once

#include <cstdint>

#include "obs/trace.hpp"
#include "runtime/comm.hpp"

namespace sfg::runtime {

class tree_termination {
 public:
  /// `control_tag` is the message tag reserved for this detector; the
  /// owner's poll loop must route messages with that tag to on_message().
  tree_termination(comm& c, int control_tag);

  /// Feed one control message (tag must equal control_tag).
  void on_message(const message& m);

  /// Drive the protocol.  `local_sent` / `local_recv` are the caller's
  /// exact counters of work units originated / consumed by this rank;
  /// `locally_idle` means: no queued work, nothing buffered for sending.
  /// Returns true once global termination has been detected (and will
  /// return true forever after).  Every rank eventually returns true.
  bool poll(std::uint64_t local_sent, std::uint64_t local_recv,
            bool locally_idle);

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Number of completed waves; exposed for tests and stats.
  [[nodiscard]] std::uint32_t waves_completed() const noexcept {
    return completed_waves_;
  }

 private:
  enum class msg_kind : std::uint8_t { wave_req = 1, wave_report = 2, done = 3 };

  struct control_msg {
    msg_kind kind;
    std::uint32_t wave;
    std::uint64_t sent;
    std::uint64_t recv;
  };

  void send_control(int dest, const control_msg& m);
  void begin_wave(std::uint32_t wave);
  void try_report(std::uint64_t local_sent, std::uint64_t local_recv,
                  bool locally_idle);
  void finalize_root_wave();
  void flood_done();

  [[nodiscard]] int parent() const noexcept { return (comm_->rank() - 1) / 2; }
  [[nodiscard]] int num_children() const noexcept;

  comm* comm_;
  int tag_;

  bool finished_ = false;
  std::uint32_t current_wave_ = 0;   // wave being collected (0 = none)
  std::uint32_t reported_wave_ = 0;  // last wave this rank reported up
  int child_reports_ = 0;
  bool child_reported_[2] = {false, false};  // dedup per child per wave
  std::uint64_t child_sent_sum_ = 0;
  std::uint64_t child_recv_sum_ = 0;
  /// Trace: when this rank's current wave opened (begin_wave); the span
  /// closes when the rank reports up.  0 = not tracing / no open wave.
  std::uint64_t wave_start_us_ = 0;

  // root only:
  bool have_prev_totals_ = false;
  std::uint64_t prev_sent_total_ = 0;
  std::uint64_t prev_recv_total_ = 0;
  std::uint64_t wave_sent_total_ = 0;
  std::uint64_t wave_recv_total_ = 0;
  bool root_wave_complete_ = false;

  std::uint32_t completed_waves_ = 0;
};

}  // namespace sfg::runtime
