// Hierarchical per-socket reader tracking (Config::socket_sharded_tracking,
// DESIGN.md §11) and the lock's entry-point guards: construction rejects
// topologies too small for the shard layout, sharding with a SNZI tracker
// and out-of-range numbers, out-of-range thread ids throw instead of
// corrupting a neighbour's flag slot, SNZI auto-sizing follows max_threads,
// and the sharded layout preserves the base algorithm's safety scenarios
// unchanged.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "common/platform.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

Config sharded_config(int threads, int sockets) {
  Config cfg = Config::variant(SchedulingVariant::kNoSched, threads);
  cfg.reader_htm_first = false;
  cfg.socket_sharded_tracking = true;
  cfg.topology = sim::Topology::split(threads, sockets);
  return cfg;
}

// A dense id outside [0, max_threads) would index past the flag array (or,
// sharded, wrap onto another socket's shard). Both entry points must throw
// instead of asserting away the problem in release builds.
TEST(SpRWLGuards, ThreadIdOutOfRangeThrows) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 2);
  SpRWLock lock{cfg};
  ThreadIdScope tid(2);  // == max_threads: first invalid id
  EXPECT_THROW(lock.read(0, [] {}), std::out_of_range);
  EXPECT_THROW(lock.write(1, [] {}), std::out_of_range);
  ThreadIdScope far(1000);
  EXPECT_THROW(lock.read(0, [] {}), std::out_of_range);
}

// Numbers the lock cannot honour fail at construction, not at first use:
// a thread count below 1 (no thread could enter; a negative one fails
// only when the plane is built), a SNZI depth outside [0, kMaxLevels] (the
// tree is built lazily) and a δ fraction outside [0, 1] or NaN
// (writer_wait casts it to an integer).
TEST(SpRWLGuards, OutOfRangeNumbersAreRejected) {
  for (int threads : {0, -1}) {
    Config c;
    c.max_threads = threads;
    EXPECT_THROW(SpRWLock{c}, std::invalid_argument) << "threads " << threads;
  }
  Config one;
  one.max_threads = 1;
  EXPECT_NO_THROW(SpRWLock{one});
  for (int levels : {-1, snzi::Snzi::kMaxLevels + 1}) {
    Config c;
    c.snzi_levels = levels;
    EXPECT_THROW(SpRWLock{c}, std::invalid_argument) << "levels " << levels;
  }
  for (int levels : {0, snzi::Snzi::kMaxLevels}) {
    Config c;
    c.snzi_levels = levels;
    EXPECT_NO_THROW(SpRWLock{c}) << "levels " << levels;
  }
  for (double delta :
       {-0.1, 1.1, std::numeric_limits<double>::quiet_NaN()}) {
    Config c;
    c.delta_fraction = delta;
    EXPECT_THROW(SpRWLock{c}, std::invalid_argument) << "delta " << delta;
  }
  for (double delta : {0.0, 1.0}) {
    Config c;
    c.delta_fraction = delta;
    EXPECT_NO_THROW(SpRWLock{c}) << "delta " << delta;
  }
}

TEST(SpRWLGuards, ValidThreadIdStillWorks) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 2);
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] { (void)x.v.load(); });
    } else {
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  EXPECT_EQ(x.v.raw_load(), 1u);
}

// An undersized topology would map two tids to the same shard slot; the
// constructor refuses rather than silently aliasing reader flags.
TEST(SpRWLSharded, ConstructorRejectsUndersizedTopology) {
  Config c = Config::variant(SchedulingVariant::kNoSched, 4);
  c.socket_sharded_tracking = true;
  c.topology.sockets = 2;
  c.topology.cores_per_socket = 1;  // 2 * 1 < 4 threads
  EXPECT_THROW(SpRWLock{c}, std::invalid_argument);
  c.topology.cores_per_socket = 0;  // unset cps with >1 socket
  EXPECT_THROW(SpRWLock{c}, std::invalid_argument);
  c.topology = sim::Topology::split(4, 2);  // 2 * 2 >= 4: fine
  EXPECT_NO_THROW(SpRWLock{c});
}

// SNZI auto-sizing (snzi_levels = 0): the tree grows until the leaf row
// holds roughly max_threads / 2 slots, capped only at the tree's own
// kMaxLevels (past-256-thread cases live in test_bravo.cpp's regression).
TEST(SpRWLSharded, SnziAutoSizeTracksMaxThreads) {
  const struct {
    int max_threads;
    std::size_t leaves;
  } cases[] = {{1, 1}, {2, 1}, {64, 32}, {256, 128}};
  for (const auto& tc : cases) {
    Config c;
    c.max_threads = tc.max_threads;
    c.tracking = Tracking::kSnzi;
    c.snzi_levels = 0;
    SpRWLock lock{c};
    EXPECT_EQ(lock.snzi_leaf_count(), tc.leaves)
        << "max_threads=" << tc.max_threads;
  }
  Config flat;  // no SNZI configured: no tree at all
  SpRWLock lock{flat};
  EXPECT_EQ(lock.snzi_leaf_count(), 0u);
}

// Fig. 1 under the sharded layout with the reader and writer on different
// sockets: the writer's commit scan reads socket summaries instead of flag
// lines, and must still abort while the remote reader is in its section.
TEST(SpRWLSharded, Fig1_WriterAbortsOnRemoteSocketReader) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{sharded_config(2, 2)};  // tid 0 -> socket 0, tid 1 -> 1
  Cell x;
  std::vector<std::uint64_t> reader_saw;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] {
        reader_saw.push_back(x.v.load());
        platform::advance(50000);
        reader_saw.push_back(x.v.load());
      });
    } else {
      platform::advance(10000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  ASSERT_EQ(reader_saw.size(), 2u);
  EXPECT_EQ(reader_saw[0], 0u);
  EXPECT_EQ(reader_saw[1], 0u);
  EXPECT_EQ(x.v.raw_load(), 1u);
  EXPECT_GE(lock.reader_abort_count(), 1u);
}

// Scan-cost accounting: only scans that found no reader are sampled (an
// abort unwinds past the sample), so an uncontended HTM write records
// exactly one passing scan with a non-zero virtual-cycle cost.
TEST(SpRWLSharded, PassingCommitScanIsSampled) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{sharded_config(4, 2)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) { lock.write(1, [&] { x.v.store(1); }); });
  EXPECT_EQ(lock.stats().writes.htm, 1u);
  EXPECT_EQ(lock.commit_scan_count(), 1u);
  EXPECT_GT(lock.commit_scan_cycles(), 0u);
}

// Atomicity stress across both sockets: concurrent readers must never see
// the two cells out of sync while writers update them together.
TEST(SpRWLSharded, NoTornReadsAcrossSockets) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 8);
  cfg.socket_sharded_tracking = true;
  cfg.topology = sim::Topology::split(8, 2);
  SpRWLock lock{cfg};
  Cell a, b;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    for (int op = 0; op < 20; ++op) {
      if (tid % 4 == 0) {  // tids 0 and 4: one writer per socket
        lock.write(1, [&] {
          const std::uint64_t n = a.v.load() + 1;
          a.v.store(n);
          b.v.store(n);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t x = a.v.load();
          platform::advance(200);
          const std::uint64_t y = b.v.load();
          if (x != y) ++torn;
        });
      }
      platform::advance(100 * static_cast<std::uint64_t>(tid) + 50);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 40u);  // 2 writers x 20 increments
  EXPECT_EQ(a.v.raw_load(), b.v.raw_load());
}

// Only the flags tracker shards: a SNZI-backed tracker on a sharded
// Config is refused, and the flags tracker on the same topology builds.
TEST(SpRWLSharded, SnziTrackersAreRejected) {
  Config cfg = Config::variant(SchedulingVariant::kFull, 8);
  cfg.socket_sharded_tracking = true;
  cfg.topology = sim::Topology::split(8, 2);
  for (Tracking t : {Tracking::kSnzi, Tracking::kAdaptive}) {
    cfg.tracking = t;
    EXPECT_THROW(SpRWLock{cfg}, std::invalid_argument);
  }
  cfg.tracking = Tracking::kFlags;
  EXPECT_NO_THROW(SpRWLock{cfg});
}

}  // namespace
}  // namespace sprwl::core
