// The per-key lock table workload (workloads/lock_table.h): the zipfian
// generator, the rank-to-key scramble, the leaf-striped invariant pair,
// and whole runs under both the flat and the BRAVO-biased lock — the
// scale-out regime where footprint and cold-lock laziness matter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "../support/run_digest.h"
#include "common/rng.h"
#include "core/bravo.h"
#include "htm/htm.h"
#include "sim/simulator.h"
#include "workloads/lock_table.h"

namespace sprwl::workloads {
namespace {

core::Config flat_lock_cfg(int threads) {
  core::Config c = core::Config::variant(core::SchedulingVariant::kFull, threads);
  c.reader_htm_first = false;
  return c;
}

core::Config bravo_lock_cfg(int threads) {
  core::Config c = flat_lock_cfg(threads);
  c.bravo_bias = true;
  bravo::ReaderTable::Config tc;
  tc.max_threads = threads;
  c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  return c;
}

TEST(Zipfian, RejectsDegenerateDomain) {
  EXPECT_THROW(Zipfian(0), std::invalid_argument);
  EXPECT_THROW(Zipfian(1), std::invalid_argument);
}

// theta >= 1 makes the exponent 1 / (1 - theta) infinite (next() then
// returned only ranks 0, 1 and n - 1); a negative or NaN theta is no skew.
TEST(Zipfian, RejectsThetaOutsideZeroToOne) {
  for (const double theta : {1.0, 1.5, -0.1, std::nan(""),
                             std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(Zipfian(1024, theta), std::invalid_argument) << theta;
  }
  for (const double theta : {0.0, 0.5, 0.999}) {
    const Zipfian z(1024, theta);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(z.next(rng), 1024u) << theta;
  }
}

TEST(Zipfian, DeterministicAndInBounds) {
  const Zipfian z(1024, 0.99);
  Rng a(7), b(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t ra = z.next(a);
    EXPECT_EQ(ra, z.next(b));
    EXPECT_LT(ra, 1024u);
  }
}

TEST(Zipfian, LowRanksDominateAtHighTheta) {
  const Zipfian z(1 << 16, 0.99);
  Rng rng(42);
  std::uint64_t top16 = 0, total = 20'000;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (z.next(rng) < 16) ++top16;
  }
  // At theta=0.99 over 64k keys, the top 16 ranks carry far more than
  // their uniform share (16/65536 ~ 0.02%); expect well over a quarter.
  EXPECT_GT(top16 * 4, total);
}

TEST(Zipfian, NearUniformAtLowTheta) {
  const Zipfian z(1 << 10, 0.1);
  Rng rng(9);
  std::uint64_t top16 = 0, total = 20'000;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (z.next(rng) < 16) ++top16;
  }
  // Uniform share would be 16/1024 ~ 1.6% (312 of 20k); allow slack but
  // rule out the hot-set concentration of the skewed case.
  EXPECT_LT(top16, total / 10);
}

TEST(LockTable, RejectsBadKeyCounts) {
  LockTable::Config c;
  c.lock = flat_lock_cfg(2);
  c.keys = 3;  // not a power of two
  EXPECT_THROW(LockTable{c}, std::invalid_argument);
  c.keys = 2;  // below a leaf
  EXPECT_THROW(LockTable{c}, std::invalid_argument);
}

TEST(LockTable, KeyScrambleIsABijection) {
  LockTable::Config c;
  c.keys = 1 << 12;
  c.lock = flat_lock_cfg(2);
  LockTable table(c);
  std::set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < c.keys; ++r) {
    const std::uint64_t k = table.key_of_rank(r);
    ASSERT_LT(k, c.keys);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), c.keys) << "scramble must not collide ranks";
  // And it actually scrambles: consecutive hot ranks land on different
  // leaf lines, not the accidental-best-case same line.
  EXPECT_NE(table.key_of_rank(0) / LockTable::kKeysPerLeaf,
            table.key_of_rank(1) / LockTable::kKeysPerLeaf);
}

// Every lock of a table points at one shared Config instead of holding a
// copy; a lock built from a Config value gets a Config of its own.
TEST(LockTable, LocksShareOneConfig) {
  LockTable::Config c;
  c.keys = 16;
  c.lock = bravo_lock_cfg(2);
  LockTable table(c);
  const core::Config& shared = table.lock_of(0).config();
  for (std::uint64_t k = 1; k < c.keys; ++k) {
    EXPECT_EQ(&table.lock_of(k).config(), &shared);
  }
  EXPECT_EQ(shared.bravo_table, c.lock.bravo_table);
  const core::SpRWLock alone{c.lock};
  EXPECT_NE(&alone.config(), &shared);
  EXPECT_THROW(core::SpRWLock{std::shared_ptr<const core::Config>{}},
               std::invalid_argument);
}

TEST(LockTable, InvariantPairSemantics) {
  LockTable::Config c;
  c.keys = 16;
  c.lock = flat_lock_cfg(1);
  LockTable table(c);
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (std::uint64_t k = 0; k < c.keys; ++k) {
      EXPECT_TRUE(table.verify_key(k, /*leaf_scan=*/true));
      EXPECT_TRUE(table.verify_key(k, /*leaf_scan=*/false));
    }
    table.bump_key(5);
    table.bump_key(5);
    EXPECT_TRUE(table.verify_key(5));
  });
  EXPECT_EQ(table.raw_version_of(5), 2u);
  EXPECT_EQ(table.raw_version_of(4), 0u) << "leaf neighbours untouched";
  EXPECT_TRUE(table.raw_all_intact());
}

// A full skewed run over per-key bravo locks: no torn reads, the table
// quiesces intact, and — the point of the lazy plane — only the keys that
// actually saw writer traffic allocated one.
TEST(LockTable, BravoRunIsCorrectAndMostLocksStayCold) {
  LockTable::Config c;
  c.keys = 1 << 12;
  c.lock = bravo_lock_cfg(4);
  LockTable table(c);
  htm::Engine engine{htm::EngineConfig{}};
  sim::Simulator sim;
  LockTableDriverConfig dc;
  dc.threads = 4;
  dc.update_ratio = 0.05;
  dc.warmup_cycles = 20'000;
  dc.measure_cycles = 400'000;
  dc.seed = 3;
  const LockTableRunResult res = run_lock_table(sim, engine, table, dc);
  EXPECT_EQ(res.invariant_failures, 0u);
  EXPECT_GT(res.reads, 0u);
  EXPECT_GT(res.writes, 0u);
  EXPECT_TRUE(table.raw_all_intact());
  EXPECT_GT(res.totals.bias_reads, 0u) << "hot reads took the fast path";
  EXPECT_GT(res.totals.locks_with_plane, 0u) << "hot keys saw writers";
  // The zipfian tail: the overwhelming majority of locks never needed a
  // plane. Planes are the only per-lock bytes that scale with the thread
  // count; here they are under a quarter of the table's bytes, where a
  // plane on every lock (the old eager layout) would make them most of it.
  EXPECT_LT(res.totals.locks_with_plane, c.keys / 4);
  // A plane's size follows how many threads stored into it, so the plane
  // bytes are summed lock by lock over a cold lock's shell (plus its bias
  // telemetry).
  std::size_t cold = 0;
  for (std::uint64_t k = 0; cold == 0 && k < c.keys; ++k) {
    const core::SpRWLock& l = table.lock_of(k);
    if (!l.has_plane()) cold = l.footprint_bytes();
  }
  std::size_t plane_bytes = 0;
  for (std::uint64_t k = 0; k < c.keys; ++k) {
    const core::SpRWLock& l = table.lock_of(k);
    if (l.has_plane()) plane_bytes += l.footprint_bytes() - cold;
  }
  EXPECT_EQ(res.totals.lock_bytes, c.keys * cold + plane_bytes);
  const std::size_t table_bytes =
      res.totals.lock_bytes + res.totals.shared_table_bytes;
  EXPECT_LT(plane_bytes * 4, table_bytes);
  // The mean plane still outweighs the shell it hangs off.
  EXPECT_GT(plane_bytes, res.totals.locks_with_plane * cold);
  // This seeded run's footprint, exactly.
  EXPECT_EQ(table_bytes, 1'020'328u);
  EXPECT_DOUBLE_EQ(res.totals.bytes_per_lock(), 249.103515625);
}

TEST(LockTable, FlatRunIsCorrect) {
  LockTable::Config c;
  c.keys = 1 << 10;
  c.lock = flat_lock_cfg(4);
  LockTable table(c);
  htm::Engine engine{htm::EngineConfig{}};
  sim::Simulator sim;
  LockTableDriverConfig dc;
  dc.threads = 4;
  dc.update_ratio = 0.10;
  dc.leaf_scan = false;
  dc.warmup_cycles = 10'000;
  dc.measure_cycles = 250'000;
  dc.seed = 11;
  const LockTableRunResult res = run_lock_table(sim, engine, table, dc);
  EXPECT_EQ(res.invariant_failures, 0u);
  EXPECT_TRUE(table.raw_all_intact());
  EXPECT_GT(res.committed(), 0u);
  EXPECT_GT(res.throughput_tx_s(), 0.0);
  EXPECT_EQ(res.totals.bias_reads, 0u) << "no bias without bravo";
  EXPECT_EQ(res.totals.shared_table_bytes, 0u);
}

TEST(LockTable, RunsAreDeterministicPerSeed) {
  const auto run_once = [](std::uint64_t seed) {
    LockTable::Config c;
    c.keys = 1 << 8;
    c.lock = bravo_lock_cfg(2);
    LockTable table(c);
    htm::Engine engine{htm::EngineConfig{}};
    sim::Simulator sim;
    LockTableDriverConfig dc;
    dc.threads = 2;
    dc.update_ratio = 0.05;
    dc.warmup_cycles = 5'000;
    dc.measure_cycles = 120'000;
    dc.seed = seed;
    return run_lock_table(sim, engine, table, dc);
  };
  const LockTableRunResult a = run_once(5);
  const LockTableRunResult b = run_once(5);
  const LockTableRunResult other = run_once(6);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.totals.bias_reads, b.totals.bias_reads);
  EXPECT_EQ(a.totals.revocations, b.totals.revocations);
  EXPECT_NE(a.reads + a.totals.bias_reads, other.reads + other.totals.bias_reads)
      << "different seeds should explore different schedules";
}

// Virtual time must not follow the heap layout: a lock shell keeps every
// engine-visible word on its own line-aligned line 0, so no other object's
// words can share that line. The same small BRAVO table, built twice in one
// process after live heap allocations of different sizes, must replay the
// same run to the cycle.
TEST(LockTable, VirtualTimeIsIndependentOfHeapLayout) {
  const auto run_after = [](std::size_t pad_bytes) {
    const std::vector<char> pad(pad_bytes, 1);  // live for the whole run
    LockTable::Config c;
    c.keys = 1 << 8;
    c.lock = bravo_lock_cfg(4);
    LockTable table(c);
    htm::Engine engine{htm::EngineConfig{}};
    sim::Simulator sim;
    LockTableDriverConfig dc;
    dc.threads = 4;
    dc.update_ratio = 0.05;
    dc.warmup_cycles = 5'000;
    dc.measure_cycles = 200'000;
    dc.seed = 9;
    LockTableRunResult r = run_lock_table(sim, engine, table, dc);
    EXPECT_EQ(pad.size(), pad_bytes);
    return r;
  };
  const LockTableRunResult a = run_after(24);
  const LockTableRunResult b = run_after(3000);
  EXPECT_EQ(a.invariant_failures, 0u);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.read_latency.mean(), b.read_latency.mean());
  EXPECT_EQ(a.write_latency.mean(), b.write_latency.mean());
  EXPECT_EQ(a.reader_aborts, b.reader_aborts);
  EXPECT_EQ(a.lock_stats.reads.unins, b.lock_stats.reads.unins);
  EXPECT_EQ(a.lock_stats.writes.htm, b.lock_stats.writes.htm);
  EXPECT_EQ(a.lock_stats.writes.gl, b.lock_stats.writes.gl);
  EXPECT_EQ(a.lock_stats.aborts.total(), b.lock_stats.aborts.total());
  EXPECT_EQ(a.totals.bias_reads, b.totals.bias_reads);
  EXPECT_EQ(a.totals.revocations, b.totals.revocations);
  EXPECT_EQ(a.totals.revoke_cycles, b.totals.revoke_cycles);
  EXPECT_EQ(a.totals.locks_with_plane, b.totals.locks_with_plane);
}

// Pinned results: one digest over every field of a BRAVO run on a
// 2-socket, socket-sharded reader table with the coherence model live —
// per-id counts, both latency histograms, lock, engine and simulator stats,
// reader aborts, final time, torn reads and the table's totals — taken
// before the three drivers shared one closed loop. Totals::lock_bytes
// follows the shell, plane and per-shard telemetry sizes; each time they
// shrank, every other field stayed equal and the digest was re-pinned.
TEST(LockTable, ShardedBravoTwoSocketRunMatchesPinnedDigest) {
  const int threads = 4;
  htm::EngineConfig ec;
  ec.max_threads = threads;
  ec.topology = sim::Topology::split(threads, 2);
  ec.track_line_owners = true;
  htm::Engine engine(ec);
  LockTable::Config c;
  c.keys = 1 << 10;
  c.lock = flat_lock_cfg(threads);
  c.lock.bravo_bias = true;
  c.lock.topology = ec.topology;
  bravo::ReaderTable::Config tc;
  tc.max_threads = threads;
  tc.topology = ec.topology;
  tc.shard_by_socket = true;
  c.lock.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  LockTable table(c);
  sim::Simulator sim;
  LockTableDriverConfig dc;
  dc.threads = threads;
  dc.update_ratio = 0.05;
  dc.warmup_cycles = 5'000;
  dc.measure_cycles = 200'000;
  dc.seed = 9;
  const LockTableRunResult r = run_lock_table(sim, engine, table, dc);
  EXPECT_EQ(r.invariant_failures, 0u);
  EXPECT_GT(r.totals.bias_reads, 0u);
  EXPECT_EQ(r.totals.lock_bytes, 290'304u);
  EXPECT_EQ(testutil::run_digest(r), 0x91a367dcb5cfa2e7ULL);
}

TEST(LockTable, TotalsArithmetic) {
  LockTable::Totals t;
  EXPECT_EQ(t.bytes_per_lock(), 0.0);
  EXPECT_EQ(t.revocation_latency(), 0.0);
  t.locks = 4;
  t.lock_bytes = 300;
  t.shared_table_bytes = 100;
  t.revocations = 2;
  t.revoke_cycles = 500;
  EXPECT_DOUBLE_EQ(t.bytes_per_lock(), 100.0);
  EXPECT_DOUBLE_EQ(t.revocation_latency(), 250.0);
}

}  // namespace
}  // namespace sprwl::workloads
