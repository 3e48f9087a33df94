// MVCC version retention (EngineConfig::retain_versions): the bounded
// per-line version ring, snapshot pin/lookup semantics, pin-gated
// reclamation, overflow accounting, and the TSan real-thread stress leg
// over the seqlock-protected ring (the MvccRealThread suite CI runs under
// -fsanitize=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "check/mutants.h"
#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::htm {
namespace {

EngineConfig mvcc_cfg(std::uint32_t retain) {
  EngineConfig cfg;
  cfg.retain_versions = retain;
  cfg.table_bits = 10;
  return cfg;
}

class Mvcc : public ::testing::Test {
 protected:
  Mvcc() : engine_(mvcc_cfg(4)), scope_(engine_), tid_(0) {}

  Engine engine_;
  EngineScope scope_;
  ThreadIdScope tid_;
};

TEST_F(Mvcc, SnapshotPinToggles) {
  EXPECT_TRUE(engine_.retains_versions());
  EXPECT_FALSE(engine_.in_snapshot());
  EXPECT_EQ(engine_.snapshot_version(), Engine::kNoSnapshot);
  const std::uint64_t pin = engine_.snapshot_begin();
  EXPECT_TRUE(engine_.in_snapshot());
  EXPECT_EQ(engine_.snapshot_version(), pin);
  engine_.snapshot_end();
  EXPECT_FALSE(engine_.in_snapshot());
}

TEST_F(Mvcc, BeginWithoutRetentionThrows) {
  Engine plain{EngineConfig{}};
  EngineScope scope(plain);
  EXPECT_FALSE(plain.retains_versions());
  EXPECT_THROW(plain.snapshot_begin(), std::logic_error);
  // And the Shared<T> fast path never consults the snapshot machinery.
  EXPECT_FALSE(plain.in_snapshot());
}

TEST_F(Mvcc, UnchangedLineServesMemoryFastPath) {
  Shared<std::uint64_t> x(7);
  x.store(10);  // publish so the line has a real version
  engine_.snapshot_begin();
  EXPECT_EQ(x.load(), 10u);  // line version <= pin: memory, re-validated
  engine_.snapshot_end();
}

TEST_F(Mvcc, PinnedReadIgnoresLaterNontxPublish) {
  Shared<std::uint64_t> x(0);
  x.store(10);
  engine_.snapshot_begin();
  x.store(20);               // newer than the pin; appends (10) to the ring
  EXPECT_EQ(x.load(), 10u);  // the snapshot still sees 10
  engine_.snapshot_end();
  EXPECT_EQ(x.load(), 20u);
  const EngineStats s = engine_.stats();
  EXPECT_GE(s.snapshot_hits, 1u);
  EXPECT_EQ(s.snapshot_misses, 0u);
}

TEST_F(Mvcc, PinnedReadIgnoresLaterCommits) {
  Shared<std::uint64_t> x(0);
  ASSERT_TRUE(engine_.try_transaction([&] { x.store(10); }).committed());
  engine_.snapshot_begin();
  x.store(20);  // commit-path append sits under the nontx one in the ring
  EXPECT_EQ(x.load(), 10u);
  engine_.snapshot_end();
}

TEST_F(Mvcc, OldestRetainedVersionWinsTheScan) {
  Shared<std::uint64_t> x(0);
  x.store(10);
  engine_.snapshot_begin();
  x.store(20);
  x.store(30);
  x.store(40);
  // Three entries newer than the pin retained (K=4): the lookup must serve
  // the OLDEST one newer than the pin — the value at pin time — not the
  // most recent.
  EXPECT_EQ(x.load(), 10u);
  engine_.snapshot_end();
}

TEST_F(Mvcc, TwoWordsOnOneLineResolveByAddress) {
  struct alignas(64) Pair {
    Shared<std::uint64_t> a;
    Shared<std::uint64_t> b;
  } p;
  p.a.store(1);
  p.b.store(2);
  engine_.snapshot_begin();
  p.a.store(11);
  p.b.store(22);
  EXPECT_EQ(p.a.load(), 1u);
  EXPECT_EQ(p.b.load(), 2u);
  engine_.snapshot_end();
  EXPECT_EQ(p.a.load(), 11u);
  EXPECT_EQ(p.b.load(), 22u);
}

TEST_F(Mvcc, LivePinOverflowsInsteadOfReclaiming) {
  Engine small(mvcc_cfg(2));
  EngineScope scope(small);
  Shared<std::uint64_t> x(0);
  x.store(10);
  small.snapshot_begin();
  x.store(20);
  x.store(30);
  // Ring of 2 is full with entries the pin still protects; the next append
  // must refuse to evict (overflow), raising the line's floor past the pin.
  x.store(40);
  EXPECT_GE(small.stats().version_overflows, 1u);
  // The floor passed the pin: history on this line is no longer complete
  // for it, so the lookup reports a miss rather than a wrong value.
  EXPECT_THROW((void)x.load(), SnapshotMiss);
  EXPECT_GE(small.stats().snapshot_misses, 1u);
  small.snapshot_end();
  EXPECT_EQ(x.load(), 40u);
}

TEST_F(Mvcc, NoLivePinReclaimsWithoutOverflow) {
  Engine small(mvcc_cfg(2));
  EngineScope scope(small);
  Shared<std::uint64_t> x(0);
  x.store(10);
  x.store(20);
  x.store(30);
  x.store(40);  // ring wraps twice; nothing pinned, so eviction is free
  EXPECT_EQ(small.stats().version_overflows, 0u);
  small.snapshot_begin();
  x.store(50);
  EXPECT_EQ(x.load(), 40u);  // fresh pin still sees its own snapshot
  small.snapshot_end();
}

TEST_F(Mvcc, SnapshotEndReleasesTheReclamationPin) {
  Engine small(mvcc_cfg(2));
  EngineScope scope(small);
  Shared<std::uint64_t> x(0);
  x.store(10);
  small.snapshot_begin();
  small.snapshot_end();
  x.store(20);
  x.store(30);
  x.store(40);  // would overflow if the pin had leaked
  EXPECT_EQ(small.stats().version_overflows, 0u);
}

TEST_F(Mvcc, StatsMergeAndReset) {
  Shared<std::uint64_t> x(0);
  x.store(10);
  engine_.snapshot_begin();
  x.store(20);
  (void)x.load();
  engine_.snapshot_end();
  EXPECT_GE(engine_.stats().snapshot_hits, 1u);
  engine_.reset_stats();
  const EngineStats s = engine_.stats();
  EXPECT_EQ(s.snapshot_hits, 0u);
  EXPECT_EQ(s.snapshot_misses, 0u);
  EXPECT_EQ(s.version_overflows, 0u);
  EXPECT_EQ(s.ring_occupancy_max, 0u);
}

// The ring high-water mark (EngineStats::ring_occupancy_max): the signal
// an adaptive ring-depth policy keys off. It tracks the max number of live
// retained entries on any line — clamped at retain_versions, growing
// monotonically, and zero while MVCC never appended.
TEST_F(Mvcc, RingOccupancyHighWaterTracksAppends) {
  EXPECT_EQ(engine_.stats().ring_occupancy_max, 0u) << "no appends yet";
  Shared<std::uint64_t> x(0);
  x.store(10);  // each publish appends the overwritten value to the ring
  EXPECT_EQ(engine_.stats().ring_occupancy_max, 1u);
  x.store(20);
  EXPECT_EQ(engine_.stats().ring_occupancy_max, 2u);
  x.store(30);
  x.store(40);
  x.store(50);
  x.store(60);
  // K=4: live occupancy is clamped at the ring depth no matter how many
  // more appends wrap it.
  EXPECT_EQ(engine_.stats().ring_occupancy_max, 4u);
  // Monotone: a shallower line elsewhere never lowers the high water.
  Shared<std::uint64_t> y(0);
  y.store(1);
  y.store(2);
  EXPECT_EQ(engine_.stats().ring_occupancy_max, 4u);
  engine_.reset_stats();
  EXPECT_EQ(engine_.stats().ring_occupancy_max, 0u);
}

// A shallow workload never fills the ring: the high water reports the
// depth actually used (the "shrink to k" signal), not the configured one.
TEST_F(Mvcc, RingOccupancyReportsUsedDepthNotConfigured) {
  Engine deep(mvcc_cfg(16));
  EngineScope scope(deep);
  Shared<std::uint64_t> x(0);
  x.store(10);
  x.store(20);
  x.store(30);
  EXPECT_EQ(deep.stats().ring_occupancy_max, 3u)
      << "three appends use three entries of the 16-deep ring";
}

TEST_F(Mvcc, BrokenTooNewServesCurrentMemory) {
  check::TooNewSnapshotEngine broken(mvcc_cfg(4));  // SpRWL-mvcc-broken
  EngineScope scope(broken);
  Shared<std::uint64_t> x(0);
  x.store(10);
  broken.snapshot_begin();
  x.store(20);
  EXPECT_EQ(x.load(), 20u);  // the too-new read the SI checker must catch
  broken.snapshot_end();
}

TEST_F(Mvcc, RetentionOffChargesNoExtraVirtualTime) {
  // The byte-identity contract: with retain_versions = 0 the publish paths
  // must advance the clock exactly as before the feature existed.
  const auto run = [](std::uint32_t retain) {
    EngineConfig cfg;
    cfg.retain_versions = retain;
    cfg.table_bits = 10;
    Engine e(cfg);
    EngineScope scope(e);
    sim::Simulator sim;
    std::uint64_t end = 0;
    sim.run(1, [&](int) {
      Shared<std::uint64_t> x(0);
      x.store(1);
      e.try_transaction([&] { x.store(2); });
      end = platform::now();
    });
    return end;
  };
  const std::uint64_t off = run(0);
  const std::uint64_t on = run(4);
  EXPECT_LT(off, on);  // retention IS charged...
  EXPECT_EQ(run(0), off);  // ...and off-mode is deterministic
}

// TSan stress: concurrent transactional publishers and snapshot readers
// over one engine. Readers assert snapshot *consistency* — all cells of a
// multi-word object observed under one pin must agree — which fails if the
// seqlock ring ever serves a torn or misplaced entry. CI runs this suite
// under -fsanitize=thread (`-R 'MvccRealThread'`).
TEST(MvccRealThread, ConsistentSnapshotsUnderConcurrentCommits) {
  EngineConfig cfg;
  cfg.retain_versions = 6;
  cfg.max_threads = 8;
  cfg.table_bits = 12;
  Engine engine(cfg);
  EngineScope scope(engine);

  constexpr int kCells = 4;
  struct alignas(64) Cell {
    Shared<std::uint64_t> v;
  };
  std::vector<Cell> cells(kCells);
  std::atomic<std::uint64_t> inconsistent{0};
  std::atomic<std::uint64_t> snapshots{0};

  sim::run_real_threads(8, [&](int tid) {
    if (tid < 2) {  // writers: multi-cell counter increments
      for (int i = 0; i < 2000; ++i) {
        engine.try_transaction([&] {
          const std::uint64_t v = cells[0].v.load() + 1;
          for (int c = 0; c < kCells; ++c) cells[c].v.store(v);
        });
      }
    } else {  // snapshot readers
      for (int i = 0; i < 2000; ++i) {
        engine.snapshot_begin();
        try {
          const std::uint64_t a = cells[0].v.load();
          bool ok = true;
          for (int c = 1; c < kCells; ++c) ok &= cells[c].v.load() == a;
          if (!ok) inconsistent.fetch_add(1, std::memory_order_relaxed);
          snapshots.fetch_add(1, std::memory_order_relaxed);
        } catch (const SnapshotMiss&) {
          // Ring churned past the pin: legal, just retry with a new pin.
        }
        engine.snapshot_end();
      }
    }
  });

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(snapshots.load(), 0u);
  // No pin leaked: reclamation is unimpeded after the run.
  EXPECT_FALSE(engine.in_snapshot());
}

}  // namespace
}  // namespace sprwl::htm
