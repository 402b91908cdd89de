/// \file frontier_test.cpp
/// Property tests for the BFS next-frontier bitmap (core/frontier.hpp):
/// inserts, the tracked count and the packed words agree, and clear and
/// resize reset the set.
#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "util/rng.hpp"

namespace sfg::core {
namespace {

std::size_t popcount_words(const frontier& f) {
  std::size_t n = 0;
  for (const std::uint64_t w : f.words()) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

bool word_bit(const frontier& f, std::size_t i) {
  return (f.words()[i >> 6] >> (i & 63)) & 1u;
}

TEST(Frontier, InsertTestCountAgree) {
  frontier f;
  f.resize(1000);
  EXPECT_EQ(f.count(), 0u);
  EXPECT_EQ(f.words().size(), 16u);
  util::xoshiro256 rng(42);
  std::set<std::size_t> model;
  for (int i = 0; i < 600; ++i) {
    const auto v = static_cast<std::size_t>(rng.uniform_below(1000));
    const bool fresh = model.insert(v).second;
    EXPECT_EQ(f.insert(v), fresh);
  }
  EXPECT_EQ(f.count(), model.size());
  EXPECT_EQ(popcount_words(f), model.size());
  for (std::size_t v = 0; v < 1000; ++v) {
    EXPECT_EQ(word_bit(f, v), model.count(v) != 0) << "bit " << v;
  }
}

TEST(Frontier, ClearEmptiesTheSet) {
  frontier f;
  f.resize(512);
  f.insert(1);
  f.insert(200);
  f.insert(511);
  f.clear();
  EXPECT_EQ(f.count(), 0u);
  EXPECT_EQ(popcount_words(f), 0u);
  for (std::size_t v = 0; v < 512; v += 2) f.insert(v);
  f.clear();
  EXPECT_EQ(f.count(), 0u);
  EXPECT_EQ(popcount_words(f), 0u);
  // A bit set before the clear is new again.
  EXPECT_TRUE(f.insert(200));
  EXPECT_EQ(f.count(), 1u);
}

TEST(Frontier, ResizeResets) {
  frontier f;
  f.resize(64);
  f.insert(63);
  f.resize(128);
  EXPECT_EQ(f.count(), 0u);
  EXPECT_EQ(popcount_words(f), 0u);
  EXPECT_EQ(f.words().size(), 2u);
  EXPECT_TRUE(f.insert(127));
  EXPECT_TRUE(word_bit(f, 127));
}

}  // namespace
}  // namespace sfg::core
