// BRAVO global reader bias (Config::bravo_bias + bravo::ReaderTable,
// DESIGN.md §12): the biased fast path and its exact virtual-time cost, the
// lazy tracking plane (cold locks stay O(1) words), writer-side revocation
// with table drain, adaptive re-bias with the revocation-cost cooldown,
// hash-collision fallbacks (lock/lock and tid/tid sharing a slot), the
// bravo-off no-op guarantee, and the corrected SNZI auto-size cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/costs.h"
#include "common/platform.h"
#include "core/bravo.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

std::shared_ptr<bravo::ReaderTable> make_table(int threads,
                                               std::size_t slots = 0) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = threads;
  tc.slots = slots;
  return std::make_shared<bravo::ReaderTable>(tc);
}

Config bravo_config(int threads,
                    std::shared_ptr<bravo::ReaderTable> table = nullptr) {
  Config cfg = Config::variant(SchedulingVariant::kFull, threads);
  cfg.reader_htm_first = false;
  cfg.bravo_bias = true;
  cfg.bravo_table = table != nullptr ? std::move(table) : make_table(threads);
  return cfg;
}

TEST(Bravo, RequiresTable) {
  Config cfg = Config::variant(SchedulingVariant::kFull, 2);
  cfg.bravo_bias = true;  // no table
  EXPECT_THROW(SpRWLock{cfg}, std::invalid_argument);
}

TEST(Bravo, TableAutoSizeAndRegistration) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = 64;
  tc.slots_per_thread = 4;
  bravo::ReaderTable t(tc);
  EXPECT_GE(t.slot_count(), 256u);
  EXPECT_EQ(t.slot_count() % bravo::ReaderTable::kSlotsPerLine, 0u);
  EXPECT_EQ(t.register_lock(), 0u);
  EXPECT_EQ(t.register_lock(), 1u);
  EXPECT_EQ(t.registered_locks(), 2u);
  EXPECT_GT(t.footprint_bytes(), t.slot_count() * 8);
}

// The headline property: a biased reader never touches the per-lock flag
// plane, so a read-only lock stays at its O(1)-word shell forever.
TEST(Bravo, FastPathReadAllocatesNoPlane) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(4)};
  EXPECT_TRUE(lock.bias_is_on());
  EXPECT_FALSE(lock.has_plane());
  Cell x;
  sim::Simulator sim;
  sim.run(4, [&](int) {
    for (int i = 0; i < 10; ++i) lock.read(0, [&] { (void)x.v.load(); });
  });
  EXPECT_FALSE(lock.has_plane());
  EXPECT_EQ(lock.bias_read_count(), 40u);
  EXPECT_EQ(lock.stats().reads.unins, 40u);
  EXPECT_EQ(lock.revocation_count(), 0u);
  // The whole lock footprint is its shell — orders of magnitude under a
  // plane (flag arrays, clocks, EMAs, stats for max_threads threads).
  EXPECT_EQ(lock.footprint_bytes(), sizeof(SpRWLock));
}

// Exact virtual-time cost of the biased fast path, by construction from
// the cost model: bias check + slot CAS (nontx: load+cas+line_publish) +
// fence + bias recheck + SGL check + [reader body] + fence + slot release
// (nontx: store+line_publish). Pins the fast path against accidental extra
// shared accesses — the whole point is that readers skip the plane.
TEST(Bravo, FastPathExactCost) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(2)};
  std::uint64_t cost = 0;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    const std::uint64_t t0 = platform::now();
    lock.read(0, [] {});
    cost = platform::now() - t0;
  });
  const std::uint64_t expected =
      3 * g_costs.load                                     // bias, bias, SGL
      + (g_costs.load + g_costs.cas + g_costs.line_publish)  // occupy CAS
      + 2 * g_costs.fence                                  // entry + exit
      + (g_costs.store + g_costs.line_publish);            // release
  EXPECT_EQ(cost, expected);
  EXPECT_EQ(lock.bias_read_count(), 1u);
}

// Writer revocation: the writer flips the bias off, drains the global
// table (waiting out the parked fast-path reader), and only then runs —
// the reader's snapshot is never torn.
TEST(Bravo, WriterRevokesAndDrainsFastReader) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(2)};
  Cell a, b;
  std::vector<std::uint64_t> saw;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] {
        saw.push_back(a.v.load());
        platform::advance(50'000);  // park in the section, slot occupied
        saw.push_back(b.v.load());
      });
    } else {
      platform::advance(10'000);  // arrive mid-read
      lock.write(1, [&] {
        a.v.store(1);
        b.v.store(1);
      });
    }
  });
  ASSERT_EQ(saw.size(), 2u);
  EXPECT_EQ(saw[0], saw[1]) << "writer committed over a parked fast reader";
  EXPECT_EQ(a.v.raw_load(), 1u);
  EXPECT_FALSE(lock.bias_is_on());
  EXPECT_EQ(lock.revocation_count(), 1u);
  EXPECT_GT(lock.revocation_cycles(), 0u) << "drain waited on the slot";
}

// Re-bias: after the configured reader-only streak (and past the
// revocation-cost cooldown), a reader re-arms the bias and later readers
// take the fast path again.
TEST(Bravo, ReaderStreakRebiases) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = bravo_config(2);
  cfg.bravo_rebias_reads = 3;
  cfg.bravo_rebias_cooldown = 0.0;  // isolate the streak rule
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.write(1, [&] { x.v.store(1); });  // revokes
    EXPECT_FALSE(lock.bias_is_on());
    for (int i = 0; i < 8; ++i) lock.read(0, [&] { (void)x.v.load(); });
  });
  EXPECT_TRUE(lock.bias_is_on());
  EXPECT_GE(lock.rebias_count(), 1u);
  EXPECT_GT(lock.bias_read_count(), 0u) << "post-rebias reads take the fast path";
}

// The BRAVO cooldown rule: an expensive revocation suppresses re-bias for
// a multiple of its sampled latency, so write-heavy phases are not made
// quadratically worse by bias flapping.
TEST(Bravo, RebiasHonorsRevocationCooldown) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = bravo_config(2);
  cfg.bravo_rebias_reads = 2;
  cfg.bravo_rebias_cooldown = 1e9;  // effectively forever
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    // A fast-path read parks a slot so the revocation drain really waits
    // (nonzero sampled latency — cooldown 0 * anything would pass).
    lock.read(0, [&] { (void)x.v.load(); });
    lock.write(1, [&] { x.v.store(1); });
    ASSERT_GT(lock.revocation_cycles(), 0u);
    for (int i = 0; i < 10; ++i) lock.read(0, [&] { (void)x.v.load(); });
  });
  EXPECT_FALSE(lock.bias_is_on()) << "cooldown must suppress re-bias";
  EXPECT_EQ(lock.rebias_count(), 0u);
}

// Two LOCKS hashed to the same slot: the second reader's occupy CAS fails
// and it falls back to the per-lock slow path — correct, just slower. A
// 1-slot table forces every (lock, tid) pair onto slot 0.
TEST(Bravo, LockCollisionFallsBackCorrectly) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  auto table = make_table(2, 1);
  SpRWLock lock_a{bravo_config(2, table)};
  SpRWLock lock_b{bravo_config(2, table)};
  Cell a1, a2, b1, b2;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    for (int op = 0; op < 12; ++op) {
      if (tid == 0) {
        lock_a.read(0, [&] {
          const std::uint64_t x = a1.v.load();
          platform::advance(300);
          if (x != a2.v.load()) ++torn;
        });
        lock_b.write(1, [&] {
          const std::uint64_t n = b1.v.load() + 1;
          b1.v.store(n);
          b2.v.store(n);
        });
      } else {
        lock_b.read(0, [&] {
          const std::uint64_t x = b1.v.load();
          platform::advance(300);
          if (x != b2.v.load()) ++torn;
        });
        lock_a.write(1, [&] {
          const std::uint64_t n = a1.v.load() + 1;
          a1.v.store(n);
          a2.v.store(n);
        });
      }
      platform::advance(100 * static_cast<std::uint64_t>(tid) + 40);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a1.v.raw_load(), 12u);
  EXPECT_EQ(b1.v.raw_load(), 12u);
}

// Two TIDS of the same lock hashed to the same slot: one takes the fast
// path, the colliding one the slow path; a writer must wait for BOTH (the
// table drain catches the first, the plane scan the second).
TEST(Bravo, TidCollisionBothReadersVisible) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(3, make_table(3, 1))};
  Cell a, b;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(3, [&](int tid) {
    if (tid < 2) {  // both readers contend for slot 0
      lock.read(0, [&] {
        const std::uint64_t x = a.v.load();
        platform::advance(40'000);
        if (x != b.v.load()) ++torn;
      });
    } else {
      platform::advance(5'000);  // both readers are in their sections
      lock.write(1, [&] {
        a.v.store(1);
        b.v.store(1);
      });
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 1u);
  EXPECT_TRUE(lock.has_plane()) << "the collision loser advertised via plane";
}

// bravo_bias=false must be a strict no-op: identical virtual-time outcome
// with and without a ReaderTable attached to the config (the table is
// registered but never consulted), and no plane-related behavior change.
TEST(Bravo, BiasOffIsExactNoOp) {
  struct Outcome {
    std::uint64_t end_time[4] = {0, 0, 0, 0};
    std::uint64_t final_a = 0;
    std::uint64_t reads = 0, writes = 0;
  };
  const auto run_one = [](bool attach_table) {
    htm::Engine engine{htm::EngineConfig{}};
    htm::EngineScope scope(engine);
    Config cfg = Config::variant(SchedulingVariant::kFull, 4);
    cfg.reader_htm_first = false;
    if (attach_table) cfg.bravo_table = make_table(4);  // bias stays off
    SpRWLock lock{cfg};
    Cell a, b;
    Outcome o;
    sim::Simulator sim;
    sim.run(4, [&](int tid) {
      for (int op = 0; op < 15; ++op) {
        if (tid == 0) {
          lock.write(1, [&] {
            const std::uint64_t n = a.v.load() + 1;
            a.v.store(n);
            b.v.store(n);
          });
        } else {
          lock.read(0, [&] {
            (void)a.v.load();
            platform::advance(120);
            (void)b.v.load();
          });
        }
        platform::advance(60 * static_cast<std::uint64_t>(tid) + 20);
      }
      o.end_time[tid] = platform::now();
    });
    o.final_a = a.v.raw_load();
    o.reads = lock.stats().reads.unins;
    o.writes = lock.stats().writes.htm + lock.stats().writes.gl;
    return o;
  };
  const Outcome plain = run_one(false);
  const Outcome attached = run_one(true);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(plain.end_time[t], attached.end_time[t]);
  EXPECT_EQ(plain.final_a, attached.final_a);
  EXPECT_EQ(plain.reads, attached.reads);
  EXPECT_EQ(plain.writes, attached.writes);
}

// Regression for the SNZI auto-size cap: the old hard `levels < 8` clamp
// silently under-sized the tree past 256 threads (1024 threads got 128
// leaves — 4x the intended per-leaf contention). The cap now follows
// max_threads up to the tree's own kMaxLevels.
TEST(Bravo, SnziAutoSizeNoLongerCapsAt256Threads) {
  const struct {
    int max_threads;
    std::size_t leaves;
  } cases[] = {{256, 128}, {512, 256}, {1024, 512}, {4096, 2048}};
  for (const auto& tc : cases) {
    Config c;
    c.max_threads = tc.max_threads;
    c.tracking = Tracking::kSnzi;
    c.snzi_levels = 0;
    SpRWLock lock{c};
    EXPECT_EQ(lock.snzi_leaf_count(), tc.leaves)
        << "max_threads=" << tc.max_threads;
  }
}

// The lazy plane under plain (non-bravo) configs: nothing is allocated at
// construction; the first slow-path operation installs it and behavior is
// unchanged from the eager days (covered by the whole existing suite —
// here we just pin the allocation points).
TEST(Bravo, PlaneIsLazyForPlainConfigsToo) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 8);
  cfg.reader_htm_first = false;
  SpRWLock lock{cfg};
  EXPECT_FALSE(lock.has_plane());
  const std::size_t shell = lock.footprint_bytes();
  EXPECT_EQ(shell, sizeof(SpRWLock));
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) { lock.read(0, [&] { (void)x.v.load(); }); });
  EXPECT_TRUE(lock.has_plane());
  EXPECT_GT(lock.footprint_bytes(), shell);
}

// Concurrency stress on REAL threads (also the TSan CI leg: -R
// 'Bravo.*RealThread'): the full bias/revoke/rebias protocol under actual
// preemption, with the invariant pair checked from both path families.
TEST(BravoRealThread, StressNoTornReads) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = bravo_config(8);
  cfg.bravo_rebias_reads = 4;
  cfg.bravo_rebias_cooldown = 1.0;
  SpRWLock lock{cfg};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::atomic<std::uint64_t> torn{0};
  sim::run_real_threads(8, [&](int tid) {
    for (int i = 0; i < 200; ++i) {
      if (tid % 4 == 0) {
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          p.b.store(v);
        });
      } else {
        lock.read(0, [&] {
          if (p.a.load() != p.b.load()) torn.fetch_add(1);
        });
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(p.a.raw_load(), 400u);  // 2 writers x 200 increments
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
}

}  // namespace
}  // namespace sprwl::core
