/// \file comm.hpp
/// `world` + `comm`: the in-process message-passing runtime.
///
/// A `world` holds the shared state for `p` ranks: one inbox per rank and
/// the scratch used by collectives.  A `comm` is one rank's handle, giving
/// it MPI-flavored operations:
///   - non-blocking point-to-point: send() / try_recv()
///   - collectives (must be called by all ranks of the world, in the same
///     order): barrier, all_reduce, all_gather(v), all_to_allv, exscan_sum,
///     broadcast
///   - traffic statistics, including per-destination message counts used by
///     the benches to measure communication hotspots (paper §III-B).
///
/// See DESIGN.md §2 for why this substitutes for MPI in this reproduction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stats_fields.hpp"
#include "runtime/barrier.hpp"
#include "runtime/fault.hpp"
#include "runtime/message.hpp"
#include "util/chaos.hpp"

namespace sfg::runtime {

class comm;

/// Optional simulated interconnect cost model: each send() busy-charges
/// the sender `per_message + per_byte * size` of injection time (as a
/// sleep, so other rank threads keep running — like a NIC DMA).  Zero by
/// default; benches that study communication volume (ghosts, routing,
/// aggregation) enable it so traffic reductions show up in wall time the
/// way they do on a real interconnect (see DESIGN.md §2).
struct net_params {
  std::chrono::nanoseconds per_message{0};
  std::chrono::nanoseconds per_byte{0};

  [[nodiscard]] bool enabled() const noexcept {
    return per_message.count() > 0 || per_byte.count() > 0;
  }
};

class world {
 public:
  /// Create a world of `num_ranks` communicating ranks.  `faults`
  /// optionally injects transport-level misbehavior (delay / reorder /
  /// duplicate / stall) per send; all-zero (the default) is inert.
  explicit world(int num_ranks, net_params net = {}, fault_params faults = {});
  ~world();

  world(const world&) = delete;
  world& operator=(const world&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(endpoints_.size()); }

  /// The per-rank handle; valid for the lifetime of the world.
  [[nodiscard]] comm& rank_comm(int rank);

  /// Break all barriers so blocked ranks fail fast (called when a rank
  /// throws).
  void poison();

 private:
  friend class comm;

  struct endpoint {
    std::mutex mu;
    std::deque<message> inbox;
    /// Fault layer only: messages whose injected delivery delay has not
    /// elapsed yet.  Promoted into the inbox by the owner's next poll.
    struct parked {
      std::chrono::steady_clock::time_point ready;
      message msg;
    };
    std::vector<parked> delayed;
  };

  /// What a rank publishes during a collective: a pointer to its
  /// contribution.  The two-barrier protocol in comm guarantees every rank
  /// reads every slot between the barriers.
  struct coll_slot {
    const void* data = nullptr;
    std::size_t bytes = 0;
  };

  std::vector<std::unique_ptr<endpoint>> endpoints_;
  std::vector<coll_slot> coll_slots_;
  poison_barrier barrier_;
  net_params net_;
  fault_params faults_;
  bool faults_on_ = false;  ///< cached so the send fast path is one branch
  /// Process-unique number of this world (comm::next_context_id).
  std::uint64_t serial_;
  std::vector<std::unique_ptr<comm>> comms_;
};

class comm {
 public:
  comm(world& w, int rank);

  comm(const comm&) = delete;
  comm& operator=(const comm&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return world_->size(); }

  /// The world's fault configuration (all-zero when faults are off).
  [[nodiscard]] const fault_params& faults() const noexcept {
    return world_->faults_;
  }

  /// MPI-style context id: the k-th call on every rank of this world
  /// returns the same value, and no other world's calls return it.  Ranks
  /// open their mailboxes in the same collective order, so a mailbox and
  /// its peers on the other ranks share one id (the routed mailbox keys
  /// its packets' trace flows with it).
  [[nodiscard]] std::uint64_t next_context_id() noexcept {
    return world_->serial_ << 32 | contexts_opened_++;
  }

  // ---- non-blocking point-to-point ----

  /// Post bytes to `dest`'s inbox.  Never blocks.  FIFO per (source, dest).
  void send(int dest, int tag, std::span<const std::byte> data);

  /// Zero-copy variant: the buffer becomes the message payload directly
  /// (no per-packet copy).  Used by the mailbox to ship whole aggregation
  /// arenas.
  void send(int dest, int tag, std::vector<std::byte>&& data);

  /// Convenience: send one trivially copyable value.
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send(dest, tag, as_bytes_of(v));
  }

  /// Pop the oldest pending message, if any.  The caller dispatches on
  /// message::tag (data vs. control channels share the inbox, as they do
  /// on a real NIC).
  bool try_recv(message& out);

  /// True if no message is waiting (racy by nature; used for idle hints).
  [[nodiscard]] bool inbox_empty() const;

  // ---- collectives (SPMD: every rank must call, same order) ----

  void barrier();

  /// Reduce `v` across all ranks with `op` (e.g. std::plus<>()); every rank
  /// receives the result.  T must be trivially copyable.
  template <typename T, typename Op>
  T all_reduce(T v, Op op) {
    publish(&v, sizeof(T));
    T acc = get_slot_value<T>(0);
    for (int r = 1; r < size(); ++r) acc = op(acc, get_slot_value<T>(r));
    barrier();  // release slots
    return acc;
  }

  /// Gather one value from each rank; result[r] is rank r's value.
  template <typename T>
  std::vector<T> all_gather(const T& v) {
    publish(&v, sizeof(T));
    std::vector<T> out(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) out[static_cast<std::size_t>(r)] = get_slot_value<T>(r);
    barrier();
    return out;
  }

  /// Gather a variable-size span from each rank, concatenated in rank
  /// order.  `counts_out`, if non-null, receives per-rank element counts.
  template <typename T>
  std::vector<T> all_gatherv(std::span<const T> mine,
                             std::vector<std::size_t>* counts_out = nullptr) {
    publish(mine.data(), mine.size_bytes());
    std::vector<T> out;
    if (counts_out != nullptr) counts_out->assign(static_cast<std::size_t>(size()), 0);
    for (int r = 0; r < size(); ++r) {
      const auto& slot = world_->coll_slots_[static_cast<std::size_t>(r)];
      const std::size_t n = slot.bytes / sizeof(T);
      const T* src = static_cast<const T*>(slot.data);
      out.insert(out.end(), src, src + n);
      if (counts_out != nullptr) (*counts_out)[static_cast<std::size_t>(r)] = n;
    }
    barrier();
    return out;
  }

  /// all_gatherv into a caller-owned buffer: `out` is cleared (capacity
  /// kept) and refilled with the rank-ordered concatenation.  For
  /// per-iteration collectives with stable sizes — the level-synchronous
  /// BFS broadcasts its frontier bitmap every level and the word counts
  /// never change within a traversal — this reaches steady state after
  /// the first call and allocates nothing thereafter.
  template <typename T>
  void all_gatherv_into(std::span<const T> mine, std::vector<T>& out,
                        std::vector<std::size_t>* counts_out = nullptr) {
    publish(mine.data(), mine.size_bytes());
    out.clear();
    if (counts_out != nullptr) {
      counts_out->assign(static_cast<std::size_t>(size()), 0);
    }
    for (int r = 0; r < size(); ++r) {
      const auto& slot = world_->coll_slots_[static_cast<std::size_t>(r)];
      const std::size_t n = slot.bytes / sizeof(T);
      const T* src = static_cast<const T*>(slot.data);
      out.insert(out.end(), src, src + n);
      if (counts_out != nullptr) {
        (*counts_out)[static_cast<std::size_t>(r)] = n;
      }
    }
    barrier();
  }

  /// Personalized all-to-all: `outgoing[d]` is this rank's data for rank d
  /// (outgoing.size() == size()).  Returns incoming[s] = data rank s sent
  /// to this rank.
  template <typename T>
  std::vector<std::vector<T>> all_to_allv(
      const std::vector<std::vector<T>>& outgoing) {
    publish(&outgoing, sizeof(outgoing));
    std::vector<std::vector<T>> incoming(static_cast<std::size_t>(size()));
    for (int s = 0; s < size(); ++s) {
      const auto* theirs = static_cast<const std::vector<std::vector<T>>*>(
          world_->coll_slots_[static_cast<std::size_t>(s)].data);
      incoming[static_cast<std::size_t>(s)] = (*theirs)[static_cast<std::size_t>(rank_)];
    }
    barrier();
    return incoming;
  }

  /// Exclusive prefix sum: returns sum of `v` over ranks < this rank.
  template <typename T>
  T exscan_sum(T v) {
    publish(&v, sizeof(T));
    T acc{};
    for (int r = 0; r < rank_; ++r) acc = acc + get_slot_value<T>(r);
    barrier();
    return acc;
  }

  /// Broadcast `v` from `root` to all ranks.
  template <typename T>
  T broadcast(T v, int root) {
    publish(&v, sizeof(T));
    T out = get_slot_value<T>(root);
    barrier();
    return out;
  }

  // ---- traffic statistics ----

  struct traffic_stats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };

  [[nodiscard]] const traffic_stats& stats() const noexcept { return stats_; }

  /// messages sent from this rank to each destination; hotspot analysis.
  [[nodiscard]] std::span<const std::uint64_t> sent_per_dest() const noexcept {
    return sent_per_dest_;
  }

  /// wire bytes sent from this rank to each destination — the transport's
  /// own row of the data-movement matrix (mailbox payloads + control
  /// traffic), unconditional like sent_per_dest().
  [[nodiscard]] std::span<const std::uint64_t> bytes_per_dest() const noexcept {
    return bytes_per_dest_;
  }

  void reset_stats();

 private:
  /// Publish this rank's collective contribution and wait for all.
  void publish(const void* data, std::size_t bytes);

  /// Shared tail of both send() overloads: charge the net model, apply
  /// faults or enqueue directly, update traffic stats.
  void post(int dest, message m);

  /// Slow path of send(): apply stall / duplicate / delay / reorder fault
  /// decisions and enqueue the message copies at `dest`.
  void fault_send(int dest, message m);

  /// Move fault-delayed messages whose release time has passed into the
  /// inbox.  Caller holds ep.mu.
  void promote_ripe_locked(world::endpoint& ep);

  template <typename T>
  T get_slot_value(int r) const {
    T out;
    std::memcpy(&out, world_->coll_slots_[static_cast<std::size_t>(r)].data, sizeof(T));
    return out;
  }

  world* world_;
  int rank_;
  std::uint32_t contexts_opened_ = 0;
  traffic_stats stats_;
  std::vector<std::uint64_t> sent_per_dest_;
  std::vector<std::uint64_t> bytes_per_dest_;
  /// Process-wide registry counters (handles cached at construction; each
  /// add is one metrics_on() branch when the registry is disabled).
  obs::counter& m_messages_sent_;
  obs::counter& m_bytes_sent_;
  obs::counter& m_messages_received_;
  obs::counter& m_bytes_received_;
  /// Per-rank fault decision stream: decision n is a pure function of
  /// (fault seed, this rank, n), so a seed pins each rank's schedule.
  util::chaos_stream fault_stream_;
};

}  // namespace sfg::runtime

/// Reflection for the shared stats conventions (delta / add / reset /
/// to_json / to_registry) — see obs/stats_fields.hpp.
template <>
struct sfg::obs::stats_traits<sfg::runtime::comm::traffic_stats> {
  using S = sfg::runtime::comm::traffic_stats;
  static constexpr auto fields = std::make_tuple(
      stats_field{"messages_sent", &S::messages_sent},
      stats_field{"messages_received", &S::messages_received},
      stats_field{"bytes_sent", &S::bytes_sent},
      stats_field{"bytes_received", &S::bytes_received});
};
