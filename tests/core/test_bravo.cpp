// BRAVO global reader bias (Config::bravo_bias + bravo::ReaderTable,
// DESIGN.md §12): the biased fast path and its exact virtual-time cost, the
// lazy tracking plane (cold locks stay O(1) words), writer-side revocation
// with table drain, adaptive re-bias with the revocation-cost cooldown,
// hash-collision fallbacks (lock/lock and tid/tid sharing a slot), the
// bravo-off no-op guarantee, and the corrected SNZI auto-size cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
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
  bravo::ReaderTable t(tc);
  EXPECT_GE(t.slot_count(), 64 * bravo::ReaderTable::kSlotsPerThread);
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

// Re-bias: after a reader-only streak of kRebiasReads (and past the
// revocation-cost cooldown, short here: the drain found no reader), a
// reader re-arms the bias and later readers take the fast path again.
TEST(Bravo, ReaderStreakRebiases) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(2)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.write(1, [&] { x.v.store(1); });  // revokes
    EXPECT_FALSE(lock.bias_is_on());
    for (std::uint64_t i = 1; i < BiasFront::kRebiasReads; ++i) {
      lock.read(0, [&] { (void)x.v.load(); });
    }
    EXPECT_FALSE(lock.bias_is_on()) << "re-armed before the streak ended";
    for (int i = 0; i < 4; ++i) lock.read(0, [&] { (void)x.v.load(); });
  });
  EXPECT_TRUE(lock.bias_is_on());
  EXPECT_GE(lock.rebias_count(), 1u);
  EXPECT_GT(lock.bias_read_count(), 0u) << "post-rebias reads take the fast path";
}

// The BRAVO cooldown rule: an expensive revocation suppresses re-bias for
// kRebiasCooldown times its sampled latency, so write-heavy phases are not
// made quadratically worse by bias flapping. A parked fast-path reader makes
// the drain expensive; a streak well past kRebiasReads inside the cooldown
// leaves the bias off, and the first read after the cooldown re-arms it.
TEST(Bravo, RebiasHonorsRevocationCooldown) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(2)};
  Cell x;
  constexpr std::uint64_t kStreak = 40;
  static_assert(kStreak > BiasFront::kRebiasReads);
  bool off_in_cooldown = false;
  std::uint64_t rebiases_in_cooldown = ~0ULL;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 1) {  // parks a fast-path slot; the drain waits it out
      lock.read(0, [&] { platform::advance(50'000); });
      return;
    }
    platform::advance(1'000);
    const std::uint64_t write_start = platform::now();
    lock.write(1, [&] { x.v.store(1); });
    const std::uint64_t write_end = platform::now();
    ASSERT_GT(lock.revocation_cycles(), 40'000u) << "drain waited on the slot";
    // The sampled latency is this one revocation's, so this is the cooldown.
    const auto cooldown = static_cast<std::uint64_t>(
        BiasFront::kRebiasCooldown *
        static_cast<double>(lock.revocation_cycles()));
    for (std::uint64_t i = 0; i < kStreak; ++i) {
      lock.read(0, [&] { (void)x.v.load(); });
    }
    ASSERT_LT(platform::now() - write_start, cooldown)
        << "the streak must run inside the cooldown";
    off_in_cooldown = !lock.bias_is_on();
    rebiases_in_cooldown = lock.rebias_count();
    platform::wait_until(write_end + cooldown);
    lock.read(0, [&] { (void)x.v.load(); });
  });
  EXPECT_TRUE(off_in_cooldown) << "cooldown must suppress re-bias";
  EXPECT_EQ(rebiases_in_cooldown, 0u);
  EXPECT_TRUE(lock.bias_is_on()) << "a read past the cooldown re-arms it";
  EXPECT_EQ(lock.rebias_count(), 1u);
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

// Pins the accounted bytes of the paper's default 28-thread lock: the
// three-line shell plus a plane that holds its 2 x 8 duration estimates
// inline and no per-thread line yet, so moving the estimates back to the
// heap, or growing any per-lock structure, shows here. Each thread's first
// read then installs the two-line block it shares with its neighbour.
TEST(Bravo, FullVariantPlaneFootprint) {
  Config cfg = Config::variant(SchedulingVariant::kFull, 28);
  cfg.reader_htm_first = false;  // reads reach the plane; no byte changes
  SpRWLock lock{cfg};
  EXPECT_EQ(lock.footprint_bytes(), sizeof(SpRWLock));
  (void)lock.snzi_leaf_count();  // builds the plane; no engine access
  ASSERT_TRUE(lock.has_plane());
  EXPECT_EQ(lock.footprint_bytes(), 952u);
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  const auto read_from = [&](int threads) {
    sim::Simulator sim;
    sim.run(threads, [&](int) { lock.read(0, [] {}); });
  };
  read_from(1);
  EXPECT_EQ(lock.footprint_bytes(), 952u + 128);  // thread 0's block
  read_from(28);
  EXPECT_EQ(lock.footprint_bytes(), 952u + 14 * 128);  // all 14 blocks
}

// Real threads race the first stores into one fresh plane's blocks (also
// the TSan CI leg: -R 'PlaneRealThread'). Both threads of every block
// start at once, one writing and one reading, so each pair races the
// install CAS under live traffic. A block installed twice would either
// land in another pair's slot (the footprint check) or leak the loser's
// copy (the ASan leg's leak check); one published before its lines are
// initialized is a data race to TSan.
TEST(PlaneRealThread, FirstStoresInstallEachBlockOnce) {
  constexpr int kThreads = 8;
  constexpr int kOps = 20;
  constexpr std::size_t kBlockBytes = 2 * 64;  // two per-thread lines
  htm::EngineConfig ec;
  ec.max_threads = kThreads;
  htm::Engine engine{ec};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, kThreads);
  cfg.reader_htm_first = false;  // every read stores its reader clock
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  for (int round = 0; round < 30; ++round) {
    SpRWLock lock{cfg};
    (void)lock.snzi_leaf_count();  // a fresh plane without blocks
    const std::size_t bare = lock.footprint_bytes();
    Pair p;
    std::atomic<int> ready{0};
    std::atomic<std::uint64_t> torn{0};
    sim::run_real_threads(kThreads, [&](int tid) {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        if (tid % 2 == 0) {
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
    EXPECT_EQ(p.a.raw_load(), std::uint64_t{kThreads / 2 * kOps});
    EXPECT_EQ(lock.footprint_bytes(), bare + kThreads / 2 * kBlockBytes);
  }
}

// Concurrency stress on REAL threads (also the TSan CI leg: -R
// 'Bravo.*RealThread'): the full bias/revoke/rebias protocol under actual
// preemption, with the invariant pair checked from both path families.
// Each writer waits for readers to re-arm the bias before every write, so
// every write revokes a live bias and the bias flaps hundreds of times;
// readers read until both writers are done, so a re-bias that never comes
// hangs the test until its timeout.
TEST(BravoRealThread, StressNoTornReads) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{bravo_config(8)};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::atomic<std::uint64_t> torn{0};
  std::atomic<int> writers_left{2};
  sim::run_real_threads(8, [&](int tid) {
    if (tid % 4 == 0) {
      for (int i = 0; i < 200; ++i) {
        while (!lock.bias_is_on()) std::this_thread::yield();
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          p.b.store(v);
        });
      }
      writers_left.fetch_sub(1);
    } else {
      while (writers_left.load() > 0) {
        lock.read(0, [&] {
          if (p.a.load() != p.b.load()) torn.fetch_add(1);
        });
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(p.a.raw_load(), 400u);  // 2 writers x 200 increments
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
  // Each of one writer's writes after its first waited for a re-bias that
  // came after its previous write revoked the bias.
  EXPECT_GE(lock.rebias_count(), 199u);
}

}  // namespace
}  // namespace sprwl::core
