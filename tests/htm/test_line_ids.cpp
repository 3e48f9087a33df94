// First-touch line ids (htm/line_ids.h): the page-local directory must hand
// out exactly the ids the engine has always used — dense, in first-touch
// order, wrapped to the version table, with the address hash past the id
// limit — because every virtual-time result depends on them. The map never
// dereferences an address, so synthetic addresses are fine here.
#include "htm/line_ids.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace sprwl::htm {
namespace {

// The engine's id assignment, restated without any concurrency or layout:
// the line's first-touch rank, wrapped to the table; once `limit` lines
// hold ids, a line not seen before takes mix64(line) instead.
class ReferenceIds {
 public:
  ReferenceIds(int table_bits, std::uint32_t limit)
      : mask_((std::uint64_t{1} << table_bits) - 1), limit_(limit) {}
  std::uint32_t line_of(std::uintptr_t addr) {
    const std::uint64_t line = addr >> 6;
    const auto it = ids_.find(line);
    if (it != ids_.end()) return static_cast<std::uint32_t>(it->second & mask_);
    if (ids_.size() >= limit_)
      return static_cast<std::uint32_t>(detail::mix64(line) & mask_);
    const auto id = static_cast<std::uint32_t>(ids_.size());
    ids_.emplace(line, id);
    return static_cast<std::uint32_t>(id & mask_);
  }

 private:
  std::uint64_t mask_;
  std::uint32_t limit_;
  std::unordered_map<std::uint64_t, std::uint32_t> ids_;
};

TEST(LineIdMap, FixedSequenceGetsFirstTouchIds) {
  LineIdMap ids(20);
  const std::vector<std::uintptr_t> seq = {
      0x55550000'1000,  // line A
      0x55550000'1040,  // next line, same page
      0x55550000'1038,  // line A again (same 64-byte line)
      0x7ffd0000'0fc0,  // another region
      0x55550020'0000,  // next 2 MiB region
      0x55550000'1fff,  // last line of A's page
      0x7ffd0000'0fc8,  // the stack-like line again
      0x55550000'1040,
  };
  std::vector<std::uint32_t> got;
  for (const std::uintptr_t a : seq) got.push_back(ids.line_of(a));
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 0, 2, 3, 4, 2, 1}));
  EXPECT_EQ(ids.assigned(), 5u);
}

// A long mixed sequence — runs of neighbouring lines, random revisits,
// far-apart regions — matched id for id against the reference, across the
// id limit and with a wrapping table.
TEST(LineIdMap, MatchesReferenceAcrossLimitAndTableWrap) {
  for (const int table_bits : {4, 10, 14}) {
    LineIdMap ids(table_bits);
    ReferenceIds ref(table_bits, ids.limit());
    ASSERT_EQ(ids.limit(), 1u << 14);
    Rng rng(static_cast<std::uint64_t>(table_bits));
    std::vector<std::uintptr_t> seen;
    std::uintptr_t cursor = 0x5555'0000'0000;
    for (int i = 0; i < 60000; ++i) {
      std::uintptr_t a = 0;
      const std::uint64_t r = rng.next_below(10);
      if (r < 5) {
        cursor += 8 * (1 + rng.next_below(16));  // walk forward
        a = cursor;
      } else if (r < 9 && !seen.empty()) {
        a = seen[rng.next_below(seen.size())];  // revisit
      } else {
        a = (rng.next() & ((std::uint64_t{1} << 47) - 1)) & ~std::uintptr_t{7};
      }
      seen.push_back(a);
      ASSERT_EQ(ids.line_of(a), ref.line_of(a)) << "access " << i;
    }
    EXPECT_EQ(ids.assigned(), ids.limit()) << "sequence must cross the limit";
  }
}

// Id exhaustion: once limit() lines hold ids, a new line takes the address
// hash and installs nothing, while lines that already hold ids keep them.
TEST(LineIdMap, ExhaustionFallsBackToAddressHash) {
  LineIdMap ids(4);
  const std::uint32_t limit = ids.limit();
  const std::uintptr_t base = 0x4000'0000;
  for (std::uint32_t i = 0; i < limit; ++i) {
    ASSERT_EQ(ids.line_of(base + 64 * std::uintptr_t{i}), i & 15u);
  }
  EXPECT_EQ(ids.assigned(), limit);
  for (std::uintptr_t a : {base + 64 * std::uintptr_t{limit},
                           std::uintptr_t{0x7f00'1234'5678}}) {
    const auto want = static_cast<std::uint32_t>(detail::mix64(a >> 6) & 15);
    EXPECT_EQ(ids.line_of(a), want);
    EXPECT_EQ(ids.line_of(a), want);  // stable, and still not assigned
  }
  EXPECT_EQ(ids.assigned(), limit);
  EXPECT_EQ(ids.line_of(base + 64 * 7), 7u);  // an old line keeps its id
}

// Real threads racing first touches over the same lines, each in its own
// order: every line must end up with exactly one id, every thread must
// see that id, and the ids must be exactly 0..L-1. Run under TSan by the
// CI's RealThread leg (installs and id draws are cross-thread publishes).
TEST(LineIdMapRealThread, ConcurrentFirstTouchGivesEachLineOneDenseId) {
  constexpr int kThreads = 4;
  constexpr std::size_t kLines = 3000;
  LineIdMap ids(20);
  // Lines spread over several pages and 2 MiB regions, so the threads also
  // race to install mid nodes and id pages.
  std::vector<std::uintptr_t> lines(kLines);
  for (std::size_t i = 0; i < kLines; ++i) {
    lines[i] = 0x6000'0000'0000 + (i % 7) * (std::uintptr_t{1} << 21) +
               (i / 7) * 64;
  }
  std::vector<std::vector<std::uint32_t>> got(
      kThreads, std::vector<std::uint32_t>(kLines));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::size_t> order(kLines);
      std::iota(order.begin(), order.end(), std::size_t{0});
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (std::size_t i = kLines - 1; i > 0; --i) {
        std::swap(order[i], order[rng.next_below(i + 1)]);
      }
      for (const std::size_t i : order) {
        got[static_cast<std::size_t>(t)][i] = ids.line_of(lines[i]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], got[0]) << "thread " << t;
  }
  std::vector<std::uint32_t> sorted = got[0];
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint32_t> dense(kLines);
  std::iota(dense.begin(), dense.end(), 0u);
  EXPECT_EQ(sorted, dense);
  EXPECT_EQ(ids.assigned(), kLines);
}

}  // namespace
}  // namespace sprwl::htm
