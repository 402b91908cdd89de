#include "io/blueprint_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>

namespace sfg::io {

namespace {

constexpr std::uint64_t kMagic = 0x5346475f42503031ULL;  // "SFG_BP01"
constexpr std::uint32_t kVersion = 3;  // v3 adds the partitioner scheme tag

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("blueprint_io: " + what + ": " + path);
}

class writer {
 public:
  writer(const std::string& path) : out_(path, std::ios::binary | std::ios::trunc), path_(path) {
    if (!out_) fail("cannot open for write", path);
  }

  template <typename T>
  void value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    value<std::uint64_t>(v.size());
    out_.write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }

  void check() {
    if (!out_) fail("short write", path_);
  }

 private:
  std::ofstream out_;
  std::string path_;
};

class reader {
 public:
  reader(const std::string& path) : in_(path, std::ios::binary), path_(path) {
    if (!in_) fail("cannot open", path);
  }

  template <typename T>
  T value() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in_) fail("truncated", path_);
    return v;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = value<std::uint64_t>();
    std::vector<T> v(n);
    in_.read(reinterpret_cast<char*>(v.data()),
             static_cast<std::streamsize>(n * sizeof(T)));
    if (!in_ && n > 0) fail("truncated", path_);
    return v;
  }

 private:
  std::ifstream in_;
  std::string path_;
};

/// The ghost list feeds distributed_graph's flat ghost index, which
/// takes the all-ones locator as its empty key and assumes distinct keys;
/// a ghost must also name a vertex mastered on another, existing rank.
void check_ghosts(const graph::partition_blueprint& bp, const std::string& path) {
  std::vector<std::uint64_t> sorted = bp.ghost_locator_bits;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    fail("duplicate ghost locator", path);
  }
  for (const std::uint64_t bits : sorted) {
    const auto loc = graph::vertex_locator::from_bits(bits);
    if (!loc.valid()) fail("invalid ghost locator", path);
    if (loc.owner() == bp.rank || loc.owner() >= bp.p) {
      fail("ghost owner is this rank or out of range", path);
    }
  }
}

}  // namespace

void save_blueprint(const std::string& path,
                    const graph::partition_blueprint& bp) {
  writer w(path);
  w.value(kMagic);
  w.value(kVersion);
  w.value<std::int32_t>(bp.rank);
  w.value<std::int32_t>(bp.p);
  w.value<std::uint8_t>(static_cast<std::uint8_t>(bp.scheme));
  w.value(bp.total_vertices);
  w.value(bp.total_edges);
  w.value<std::uint64_t>(bp.num_sources);
  w.value<std::uint64_t>(bp.num_sinks);
  w.vec(bp.csr_offsets);
  w.vec(bp.adj_bits);
  w.vec(bp.adj_weight);
  w.vec(bp.slot_global_id);
  w.vec(bp.slot_locator_bits);
  w.vec(bp.slot_degree);
  w.value<std::uint64_t>(bp.split_table.size());
  for (const auto& e : bp.split_table) {
    w.value(e.global_id);
    w.value(e.locator_bits);
    w.value(e.global_degree);
    w.vec(e.owners);
  }
  w.vec(bp.ghost_locator_bits);
  // std::pair is not trivially copyable; split into parallel arrays.
  std::vector<std::uint64_t> dir_keys;
  std::vector<std::uint64_t> dir_vals;
  dir_keys.reserve(bp.directory.size());
  dir_vals.reserve(bp.directory.size());
  for (const auto& [k, v] : bp.directory) {
    dir_keys.push_back(k);
    dir_vals.push_back(v);
  }
  w.vec(dir_keys);
  w.vec(dir_vals);
  w.check();
}

graph::partition_blueprint load_blueprint(const std::string& path) {
  reader r(path);
  if (r.value<std::uint64_t>() != kMagic) fail("bad magic", path);
  if (r.value<std::uint32_t>() != kVersion) fail("version mismatch", path);
  graph::partition_blueprint bp;
  bp.rank = r.value<std::int32_t>();
  bp.p = r.value<std::int32_t>();
  bp.scheme = static_cast<graph::partitioner_kind>(r.value<std::uint8_t>());
  bp.total_vertices = r.value<std::uint64_t>();
  bp.total_edges = r.value<std::uint64_t>();
  bp.num_sources = r.value<std::uint64_t>();
  bp.num_sinks = r.value<std::uint64_t>();
  bp.csr_offsets = r.vec<std::uint64_t>();
  bp.adj_bits = r.vec<std::uint64_t>();
  bp.adj_weight = r.vec<std::uint32_t>();
  bp.slot_global_id = r.vec<std::uint64_t>();
  bp.slot_locator_bits = r.vec<std::uint64_t>();
  bp.slot_degree = r.vec<std::uint64_t>();
  const auto splits = r.value<std::uint64_t>();
  bp.split_table.resize(splits);
  for (auto& e : bp.split_table) {
    e.global_id = r.value<std::uint64_t>();
    e.locator_bits = r.value<std::uint64_t>();
    e.global_degree = r.value<std::uint64_t>();
    e.owners = r.vec<int>();
  }
  bp.ghost_locator_bits = r.vec<std::uint64_t>();
  check_ghosts(bp, path);
  const auto dir_keys = r.vec<std::uint64_t>();
  const auto dir_vals = r.vec<std::uint64_t>();
  if (dir_keys.size() != dir_vals.size()) fail("directory corrupt", path);
  // distributed_graph::directory_probe binary-searches the shard.
  if (std::adjacent_find(dir_keys.begin(), dir_keys.end(),
                         std::greater_equal<>()) != dir_keys.end()) {
    fail("directory keys not strictly ascending", path);
  }
  bp.directory.reserve(dir_keys.size());
  for (std::size_t i = 0; i < dir_keys.size(); ++i) {
    bp.directory.emplace_back(dir_keys[i], dir_vals[i]);
  }
  return bp;
}

std::string blueprint_path(const std::string& base, int rank) {
  return base + ".rank" + std::to_string(rank) + ".sfg";
}

void save_blueprints(runtime::comm& c, const std::string& base,
                     const graph::partition_blueprint& bp) {
  save_blueprint(blueprint_path(base, c.rank()), bp);
  c.barrier();  // checkpoint is complete only when every rank has written
}

graph::partition_blueprint load_blueprints(runtime::comm& c,
                                           const std::string& base) {
  auto bp = load_blueprint(blueprint_path(base, c.rank()));
  if (bp.p != c.size() || bp.rank != c.rank()) {
    fail("world size/rank mismatch with checkpoint",
         blueprint_path(base, c.rank()));
  }
  c.barrier();
  return bp;
}

}  // namespace sfg::io
