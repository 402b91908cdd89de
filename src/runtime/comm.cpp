#include "runtime/comm.hpp"

#include <cassert>
#include <stdexcept>
#include <thread>

#include "obs/flight.hpp"

namespace sfg::runtime {

namespace {
std::atomic<std::uint64_t> worlds_created{0};
}  // namespace

world::world(int num_ranks, net_params net, fault_params faults)
    : coll_slots_(static_cast<std::size_t>(num_ranks)),
      barrier_(num_ranks),
      net_(net),
      faults_(faults),
      faults_on_(faults.enabled()),
      serial_(worlds_created.fetch_add(1, std::memory_order_relaxed)) {
  if (num_ranks <= 0) throw std::invalid_argument("world: num_ranks must be > 0");
  endpoints_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    endpoints_.push_back(std::make_unique<endpoint>());
  }
  comms_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    comms_.push_back(std::make_unique<comm>(*this, r));
  }
}

world::~world() = default;

comm& world::rank_comm(int rank) {
  assert(rank >= 0 && rank < size());
  return *comms_[static_cast<std::size_t>(rank)];
}

void world::poison() { barrier_.poison(); }

comm::comm(world& w, int rank)
    : world_(&w),
      rank_(rank),
      sent_per_dest_(static_cast<std::size_t>(w.size()), 0),
      bytes_per_dest_(static_cast<std::size_t>(w.size()), 0),
      m_messages_sent_(
          obs::metrics_registry::instance().get_counter("comm.messages_sent")),
      m_bytes_sent_(
          obs::metrics_registry::instance().get_counter("comm.bytes_sent")),
      m_messages_received_(obs::metrics_registry::instance().get_counter(
          "comm.messages_received")),
      m_bytes_received_(obs::metrics_registry::instance().get_counter(
          "comm.bytes_received")),
      fault_stream_(w.faults_.seed, static_cast<std::uint64_t>(rank)) {}

void comm::send(int dest, int tag, std::span<const std::byte> data) {
  message m;
  m.source = rank_;
  m.tag = tag;
  m.payload.assign(data.begin(), data.end());
  post(dest, std::move(m));
}

void comm::send(int dest, int tag, std::vector<std::byte>&& data) {
  message m;
  m.source = rank_;
  m.tag = tag;
  m.payload = std::move(data);
  post(dest, std::move(m));
}

void comm::post(int dest, message m) {
  assert(dest >= 0 && dest < size());
  const std::size_t bytes = m.payload.size();
  if (world_->net_.enabled()) {
    // Charge the sender the modeled injection cost; sleeping lets other
    // rank threads progress, like DMA overlapping computation.
    std::this_thread::sleep_for(world_->net_.per_message +
                                world_->net_.per_byte *
                                    static_cast<std::int64_t>(bytes));
  }
  if (world_->faults_on_) {
    fault_send(dest, std::move(m));
  } else {
    auto& ep = *world_->endpoints_[static_cast<std::size_t>(dest)];
    const std::scoped_lock lock(ep.mu);
    ep.inbox.push_back(std::move(m));
  }
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  ++sent_per_dest_[static_cast<std::size_t>(dest)];
  bytes_per_dest_[static_cast<std::size_t>(dest)] += bytes;
  if (obs::metrics_on()) {
    m_messages_sent_.add_raw(1);
    m_bytes_sent_.add_raw(bytes);
  }
}

void comm::fault_send(int dest, message m) {
  const fault_params& f = world_->faults_;
  // Draw every decision before touching the endpoint so the decision
  // sequence depends only on this rank's send order, not on lock timing.
  if (fault_stream_.decide(f.stall_prob)) {
    std::this_thread::sleep_for(fault_stream_.duration_up_to(f.max_stall));
  }
  const int copies = fault_stream_.decide(f.duplicate_prob) ? 2 : 1;
  if (copies > 1) {
    obs::flight_record(obs::flight_kind::fault_duplicate,
                       static_cast<std::uint64_t>(dest));
  }
  struct plan {
    bool delay;
    std::chrono::nanoseconds delay_by;
    bool reorder;
    std::uint64_t position;
  };
  plan plans[2];
  for (int i = 0; i < copies; ++i) {
    plans[i].delay = fault_stream_.decide(f.delay_prob);
    plans[i].delay_by = fault_stream_.duration_up_to(f.max_delay);
    plans[i].reorder = fault_stream_.decide(f.reorder_prob);
    plans[i].position = fault_stream_.below(1u << 20);
    if (plans[i].delay) {
      obs::flight_record(
          obs::flight_kind::fault_delay, static_cast<std::uint64_t>(dest),
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  plans[i].delay_by)
                  .count()));
    }
  }
  auto& ep = *world_->endpoints_[static_cast<std::size_t>(dest)];
  const auto now = std::chrono::steady_clock::now();
  const std::scoped_lock lock(ep.mu);
  for (int i = 0; i < copies; ++i) {
    message copy = (i + 1 < copies) ? m : std::move(m);
    if (plans[i].delay) {
      ep.delayed.push_back({now + plans[i].delay_by, std::move(copy)});
    } else if (plans[i].reorder && !ep.inbox.empty()) {
      const auto at = static_cast<std::ptrdiff_t>(
          plans[i].position % (ep.inbox.size() + 1));
      ep.inbox.insert(ep.inbox.begin() + at, std::move(copy));
    } else {
      ep.inbox.push_back(std::move(copy));
    }
  }
}

void comm::promote_ripe_locked(world::endpoint& ep) {
  if (ep.delayed.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ep.delayed.size();) {
    if (ep.delayed[i].ready <= now) {
      ep.inbox.push_back(std::move(ep.delayed[i].msg));
      ep.delayed[i] = std::move(ep.delayed.back());
      ep.delayed.pop_back();
    } else {
      ++i;
    }
  }
}

bool comm::try_recv(message& out) {
  auto& ep = *world_->endpoints_[static_cast<std::size_t>(rank_)];
  const std::scoped_lock lock(ep.mu);
  if (world_->faults_on_) promote_ripe_locked(ep);
  if (ep.inbox.empty()) return false;
  out = std::move(ep.inbox.front());
  ep.inbox.pop_front();
  ++stats_.messages_received;
  stats_.bytes_received += out.payload.size();
  if (obs::metrics_on()) {
    m_messages_received_.add_raw(1);
    m_bytes_received_.add_raw(out.payload.size());
  }
  return true;
}

bool comm::inbox_empty() const {
  auto& ep = *world_->endpoints_[static_cast<std::size_t>(rank_)];
  const std::scoped_lock lock(ep.mu);
  // A fault-delayed message still counts as waiting: the rank is not idle
  // while deliveries are parked for it.
  return ep.inbox.empty() && ep.delayed.empty();
}

void comm::publish(const void* data, std::size_t bytes) {
  world_->coll_slots_[static_cast<std::size_t>(rank_)] = {data, bytes};
  barrier();
}

void comm::barrier() { world_->barrier_.arrive_and_wait(); }

void comm::reset_stats() {
  stats_ = traffic_stats{};
  sent_per_dest_.assign(sent_per_dest_.size(), 0);
  bytes_per_dest_.assign(bytes_per_dest_.size(), 0);
}

}  // namespace sfg::runtime
