#include "workloads/driver.h"

#include <gtest/gtest.h>

#include <memory>

#include "../support/run_digest.h"
#include "core/sprwl.h"
#include "locks/posix_rwlock.h"
#include "locks/tle.h"

namespace sprwl::workloads {
namespace {

DriverConfig tiny_driver(int threads) {
  DriverConfig cfg;
  cfg.threads = threads;
  cfg.update_ratio = 0.2;
  cfg.lookups_per_read = 3;
  cfg.key_space = 2048;
  cfg.warmup_cycles = 50'000;
  cfg.measure_cycles = 500'000;
  cfg.seed = 9;
  return cfg;
}

HashMap make_map(int max_threads) {
  HashMap::Config cfg;
  cfg.buckets = 128;
  cfg.capacity = 4096;
  cfg.max_threads = max_threads;
  HashMap map(cfg);
  Rng rng(1);
  map.populate(1024, 2048, rng);
  return map;
}

TEST(Driver, ProducesThroughputAndLatencies) {
  htm::Engine engine{htm::EngineConfig{}};
  HashMap map = make_map(4);
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, 4)};
  sim::Simulator sim;
  const RunResult r = run_hashmap(sim, engine, lock, map, tiny_driver(4));
  EXPECT_GT(r.committed(), 100u);
  EXPECT_GT(r.reads, r.writes);  // 20% updates
  EXPECT_GT(r.throughput_tx_s(), 0.0);
  EXPECT_EQ(r.read_latency.count(), r.reads);
  EXPECT_EQ(r.write_latency.count(), r.writes);
  EXPECT_GT(r.read_latency.mean(), 0.0);
  // Commit-mode accounting covers every committed section (warmup sections
  // are counted by the lock but not by the measurement window).
  EXPECT_GE(r.lock_stats.reads.total(), r.reads);
  EXPECT_GE(r.lock_stats.writes.total(), r.writes);
}

/// The tiny workload on a default engine; engine, map and lock are built in
/// the order the bench points build them.
template <class MakeLock>
RunResult run_tiny(MakeLock make_lock) {
  htm::Engine engine{htm::EngineConfig{}};
  HashMap map = make_map(4);
  auto lock = make_lock();
  sim::Simulator sim;
  return run_hashmap(sim, engine, *lock, map, tiny_driver(4));
}

std::unique_ptr<core::SpRWLock> make_sprwl() {
  return std::make_unique<core::SpRWLock>(
      core::Config::variant(core::SchedulingVariant::kFull, 4));
}

/// TLELock's words are not line-aligned, so where the heap places it could
/// decide which other words share its lock word's line. On a line of its
/// own, its runs do not depend on the heap's history.
struct alignas(64) LineTle : locks::TLELock {
  using TLELock::TLELock;
};

TEST(Driver, StableAcrossIdenticalRuns) {
  // The fiber schedule, the workload stream and the engine's line ids
  // (first-touch order, htm/line_ids.h) are all deterministic given the
  // seed, so two identical runs agree on every field.
  EXPECT_EQ(testutil::run_fields(run_tiny(make_sprwl)),
            testutil::run_fields(run_tiny(make_sprwl)));
}

// Pinned results: one digest over every RunResult field of the tiny
// workload, taken before the three drivers shared one closed loop. Any
// change to the loop's order of clock reads, draws, lock calls and charges
// moves them.
TEST(Driver, SpRWLRunMatchesPinnedDigest) {
  EXPECT_EQ(testutil::run_digest(run_tiny(make_sprwl)), 0x435c8cdf0afd1751ULL);
}

TEST(Driver, TleRunMatchesPinnedDigest) {
  EXPECT_EQ(testutil::run_digest(run_tiny([] {
              return std::make_unique<LineTle>(
                  locks::TLELock::Config{.max_threads = 4});
            })),
            0xd91c015381cae42dULL);
}

// The fig3 shape: 28 fibers on a Broadwell-capacity engine, with readers of
// 10 lookups over ~128-entry chains, so every read overflows HTM and runs
// uninstrumented while almost every charged access switches fibers. The
// window is short; the digest pins the simulator's and the engine's host
// paths, which must not move a virtual cycle.
TEST(Driver, LongReaderFig3ShapeMatchesPinnedDigest) {
  constexpr int kThreads = 28;
  htm::EngineConfig ec;
  ec.capacity = htm::kBroadwell;
  ec.max_threads = kThreads;
  htm::Engine engine{ec};
  HashMap::Config mc;
  mc.buckets = 256;
  mc.capacity = 65536;
  mc.max_threads = kThreads;
  HashMap map(mc);
  Rng rng(1);
  map.populate(32768, 65536, rng);
  core::SpRWLock lock{
      core::Config::variant(core::SchedulingVariant::kFull, kThreads)};
  DriverConfig cfg;
  cfg.threads = kThreads;
  cfg.update_ratio = 0.1;
  cfg.lookups_per_read = 10;
  cfg.key_space = 65536;
  cfg.warmup_cycles = 20'000;
  cfg.measure_cycles = 1'000'000;
  cfg.seed = 1;
  sim::Simulator sim;
  const RunResult r = run_hashmap(sim, engine, lock, map, cfg);
  EXPECT_GT(r.reads, 0u);
  EXPECT_EQ(r.lock_stats.reads.htm, 0u);  // every read overflows capacity
  EXPECT_EQ(testutil::run_digest(r), 0x2bc12b54f707ff3bULL);
}

TEST(Driver, DifferentSeedsProduceDifferentRuns) {
  htm::Engine engine{htm::EngineConfig{}};
  HashMap map = make_map(2);
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, 2)};
  DriverConfig cfg = tiny_driver(2);
  sim::Simulator sim;
  const RunResult a = run_hashmap(sim, engine, lock, map, cfg);
  cfg.seed = 12345;
  sim::Simulator sim2;
  const RunResult b = run_hashmap(sim2, engine, lock, map, cfg);
  EXPECT_NE(a.reads * 1000 + a.writes, b.reads * 1000 + b.writes);
}

TEST(Driver, WorksWithPessimisticLock) {
  htm::Engine engine{htm::EngineConfig{}};
  HashMap map = make_map(4);
  locks::PosixRWLock lock{4};
  sim::Simulator sim;
  const RunResult r = run_hashmap(sim, engine, lock, map, tiny_driver(4));
  EXPECT_GT(r.committed(), 50u);
  EXPECT_GE(r.lock_stats.reads.pessimistic, r.reads);
  EXPECT_EQ(r.lock_stats.reads.htm, 0u);
  EXPECT_EQ(r.reader_aborts, 0u);  // pessimistic locks have no such class
}

TEST(Driver, TleLongReadersHitCapacityAndFallBack) {
  // Chains of ~32 nodes, 10 lookups per read CS, POWER8 capacity: TLE
  // readers must frequently exceed capacity and run under the global lock
  // — the effect driving Fig. 3.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::kPower8;
  htm::Engine engine(ecfg);
  HashMap::Config mcfg;
  mcfg.buckets = 32;
  mcfg.capacity = 2048;
  mcfg.max_threads = 4;
  HashMap map(mcfg);
  Rng rng(2);
  map.populate(1024, 2048, rng);
  locks::TLELock::Config lcfg;
  lcfg.max_threads = 4;
  locks::TLELock lock{lcfg};
  DriverConfig dcfg = tiny_driver(4);
  dcfg.lookups_per_read = 10;
  dcfg.measure_cycles = 2'000'000;
  sim::Simulator sim;
  const RunResult r = run_hashmap(sim, engine, lock, map, dcfg);
  EXPECT_GT(r.engine_stats.aborts_capacity, 0u);
  EXPECT_GT(r.lock_stats.reads.gl, r.lock_stats.reads.htm / 2);
}

TEST(Driver, SpRWLUninstrumentedReadersAvoidTheGlobalLock) {
  // Same workload as above under SpRWL: reads complete uninstrumented,
  // no read ever serializes on the SGL.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::kPower8;
  htm::Engine engine(ecfg);
  HashMap::Config mcfg;
  mcfg.buckets = 32;
  mcfg.capacity = 2048;
  mcfg.max_threads = 4;
  HashMap map(mcfg);
  Rng rng(2);
  map.populate(1024, 2048, rng);
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, 4)};
  DriverConfig dcfg = tiny_driver(4);
  dcfg.lookups_per_read = 10;
  dcfg.measure_cycles = 2'000'000;
  sim::Simulator sim;
  const RunResult r = run_hashmap(sim, engine, lock, map, dcfg);
  EXPECT_EQ(r.lock_stats.reads.gl, 0u);
  EXPECT_GT(r.lock_stats.reads.unins, 0u);
}

}  // namespace
}  // namespace sprwl::workloads
