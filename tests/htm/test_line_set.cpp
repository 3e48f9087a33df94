#include "htm/line_set.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"

namespace sprwl::htm {
namespace {

TEST(EpochMap, InsertAndFind) {
  EpochMap<std::uint32_t> m;
  bool inserted = false;
  m.get_or_insert(7, 100, inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(m.size(), 1u);
  const std::uint32_t* v = m.find(7);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 100u);
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(EpochMap, SecondInsertReturnsExisting) {
  EpochMap<std::uint32_t> m;
  bool inserted = false;
  m.get_or_insert(7, 100, inserted);
  std::uint32_t& v = m.get_or_insert(7, 999, inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(v, 100u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(EpochMap, ZeroKeyIsValid) {
  EpochMap<std::uint32_t> m;
  bool inserted = false;
  m.get_or_insert(0, 5, inserted);
  EXPECT_TRUE(inserted);
  const std::uint32_t* v = m.find(0);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5u);
}

TEST(EpochMap, ClearIsConstantTimeEviction) {
  EpochMap<std::uint32_t> m;
  bool inserted = false;
  for (std::uint32_t k = 0; k < 100; ++k) m.get_or_insert(k, k, inserted);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_EQ(m.find(k), nullptr);
  m.get_or_insert(3, 33, inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(m.size(), 1u);
}

TEST(EpochMap, GrowsBeyondInitialCapacity) {
  EpochMap<std::uint32_t> m;
  bool inserted = false;
  for (std::uint32_t k = 0; k < 10000; ++k) {
    m.get_or_insert(k, k * 2, inserted);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint32_t k = 0; k < 10000; ++k) {
    const std::uint32_t* v = m.find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k * 2);
  }
}

TEST(EpochMap, CollidingAndDenseKeysRoundTripAcrossGrowth) {
  // Keys a power-of-two stride apart (k and k + 16, 32, 64 for a 16-slot
  // table) share their low bits, as line ids of multi-line records do;
  // whatever slot the hash gives them, each must come back with its own
  // payload. A dense run then grows the table several times under them.
  EpochMap<std::uint32_t> m;
  bool inserted = false;
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t stride : {0u, 16u, 32u, 64u}) {
      m.get_or_insert(k + stride, 1000 + k + stride, inserted);
      EXPECT_TRUE(inserted);
    }
  }
  for (std::uint32_t k = 100; k < 1100; ++k) {
    m.get_or_insert(k, k * 3, inserted);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(m.size(), 16u + 1000u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t stride : {0u, 16u, 32u, 64u}) {
      const std::uint32_t* v = m.find(k + stride);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, 1000 + k + stride);
      EXPECT_EQ(m.get_or_insert(k + stride, 0, inserted), 1000 + k + stride);
      EXPECT_FALSE(inserted);
    }
  }
  for (std::uint32_t k = 100; k < 1100; ++k) {
    const std::uint32_t* v = m.find(k);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k * 3);
  }
  EXPECT_EQ(m.find(4), nullptr);
  EXPECT_EQ(m.find(1100), nullptr);
  EXPECT_EQ(m.find(16 * 1024 + 1), nullptr);
}

TEST(EpochMap, PointerKeys) {
  EpochMap<std::uint64_t> m;
  bool inserted = false;
  int a = 0, b = 0;
  m.get_or_insert(reinterpret_cast<std::uint64_t>(&a), 1, inserted);
  m.get_or_insert(reinterpret_cast<std::uint64_t>(&b), 2, inserted);
  EXPECT_EQ(*m.find(reinterpret_cast<std::uint64_t>(&a)), 1u);
  EXPECT_EQ(*m.find(reinterpret_cast<std::uint64_t>(&b)), 2u);
}

TEST(EpochMap, MatchesReferenceMapUnderRandomOps) {
  EpochMap<std::uint32_t> m;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  Rng rng(99);
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int i = 0; i < 500; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.next_below(300));
      const auto val = static_cast<std::uint32_t>(rng.next());
      bool inserted = false;
      std::uint32_t& slot = m.get_or_insert(key, val, inserted);
      auto [it, ref_inserted] = ref.try_emplace(key, val);
      EXPECT_EQ(inserted, ref_inserted);
      EXPECT_EQ(slot, it->second);
    }
    EXPECT_EQ(m.size(), ref.size());
    for (const auto& [k, v] : ref) {
      const std::uint32_t* found = m.find(k);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, v);
    }
    m.clear();
    ref.clear();
  }
}

}  // namespace
}  // namespace sprwl::htm
