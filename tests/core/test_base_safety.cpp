// SpRWL base-algorithm safety: the scenarios of the paper's Figs. 1 and 2
// plus the SGL interplay rules of Alg. 1, scripted deterministically under
// the virtual-time simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/platform.h"
#include "common/rng.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

Config base_config(int threads) {
  // Pure Section-3.1 algorithm: no scheduling, no reader-HTM path, so the
  // base mechanism itself is what gets exercised.
  Config cfg = Config::variant(SchedulingVariant::kNoSched, threads);
  cfg.reader_htm_first = false;
  return cfg;
}

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

TEST(SpRWLBase, Fig1_WriterAbortsWhenReaderActiveAtCommit) {
  // Reader begins first and stays active across the writer's commit
  // attempt: the writer must not commit its first attempt and the reader
  // must observe x == 0 throughout.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(2)};
  Cell x;
  std::vector<std::uint64_t> reader_saw;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // reader: long, starts immediately
      lock.read(0, [&] {
        reader_saw.push_back(x.v.load());
        platform::advance(50000);
        reader_saw.push_back(x.v.load());
      });
    } else {  // writer: starts mid-reader
      platform::advance(10000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  ASSERT_EQ(reader_saw.size(), 2u);
  EXPECT_EQ(reader_saw[0], 0u);
  EXPECT_EQ(reader_saw[1], 0u);  // no torn/partial view mid-section
  EXPECT_EQ(x.v.raw_load(), 1u);  // writer eventually succeeded
  EXPECT_GE(lock.reader_abort_count(), 1u);
}

TEST(SpRWLBase, Fig2_ReaderFinishingFirstLetsWriterCommitInHtm) {
  // Reader completes before the writer reaches its commit check: the
  // writer commits in HTM on the first attempt (no reader abort).
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(2)};
  Cell x, y;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // short reader
      lock.read(0, [&] {
        (void)x.v.load();
        (void)y.v.load();
      });
    } else {  // writer overlapping the reader's start, committing later
      lock.write(1, [&] {
        x.v.store(5);
        y.v.store(7);
        platform::advance(20000);
      });
    }
  });
  EXPECT_EQ(x.v.raw_load(), 5u);
  EXPECT_EQ(y.v.raw_load(), 7u);
  EXPECT_EQ(lock.reader_abort_count(), 0u);
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.writes.htm, 1u);
  EXPECT_EQ(s.writes.gl, 0u);
}

TEST(SpRWLBase, UninstrumentedReaderIsImmuneToCapacity) {
  // Readers touching far more lines than any HTM capacity still complete
  // (they run outside transactions); a TLE-style reader would fall back.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 8, 8};
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(1)};
  std::vector<Cell> cells(64);
  std::uint64_t sum = 0;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read(0, [&] {
      for (auto& c : cells) sum += c.v.load();
    });
  });
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.reads.unins, 1u);
  EXPECT_EQ(sum, 0u);
}

TEST(SpRWLBase, WriterCapacityAbortGoesToSgl) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 8, 4};
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(1)};
  std::vector<Cell> cells(16);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.write(1, [&] {
      for (auto& c : cells) c.v.store(3);
    });
  });
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.writes.gl, 1u);
  EXPECT_EQ(s.writes.htm, 0u);
  for (auto& c : cells) EXPECT_EQ(c.v.raw_load(), 3u);
  EXPECT_EQ(engine.stats().aborts_capacity, 1u);
}

TEST(SpRWLBase, ReaderDefersToSglWriter) {
  // A writer in the SGL fallback excludes uninstrumented readers: a reader
  // arriving mid-SGL-section must wait and then see the full update.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 64, 2};  // force SGL writers
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(2)};
  std::vector<Cell> cells(8);
  std::uint64_t reader_sum = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // writer: capacity-aborts, then long SGL section
      lock.write(1, [&] {
        for (auto& c : cells) {
          c.v.store(1);
          platform::advance(5000);
        }
      });
    } else {  // reader arrives once the writer holds the SGL
      platform::advance(20000);
      lock.read(0, [&] {
        for (auto& c : cells) reader_sum += c.v.load();
      });
    }
  });
  // All-or-nothing: the reader waited for the SGL writer.
  EXPECT_EQ(reader_sum, 8u);
  EXPECT_EQ(lock.stats().writes.gl, 1u);
}

TEST(SpRWLBase, SglWriterWaitsForActiveReaders) {
  // A reader already inside its section when a writer acquires the SGL
  // must finish undisturbed (the writer waits; Alg. 1 line 45).
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 64, 1};  // 2 lines -> SGL
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(2)};
  Cell a, b;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // long reader, starts first
      lock.read(0, [&] {
        const std::uint64_t x = a.v.load();
        platform::advance(60000);
        const std::uint64_t y = b.v.load();
        if (x != y) ++torn;
      });
    } else {  // SGL writer arriving mid-reader
      platform::advance(10000);
      lock.write(1, [&] {
        a.v.store(9);
        b.v.store(9);  // 2 distinct lines > capacity 1: abort -> SGL
      });
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 9u);
  EXPECT_EQ(b.v.raw_load(), 9u);
}

TEST(SpRWLBase, ConcurrentHtmWritersOnDisjointDataBothCommit) {
  // Unlike every pessimistic RWLock, SpRWL lets two writers commit
  // concurrently when HTM finds no conflict.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{base_config(2)};
  Cell a, b;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    lock.write(1, [&] {
      auto& mine = tid == 0 ? a : b;
      mine.v.store(static_cast<std::uint64_t>(tid) + 1);
      platform::advance(5000);  // overlap
    });
  });
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.writes.htm, 2u);
  EXPECT_EQ(s.writes.gl, 0u);
  EXPECT_EQ(a.v.raw_load(), 1u);
  EXPECT_EQ(b.v.raw_load(), 2u);
}

TEST(SpRWLBase, WriterRetriesAfterReaderAbortAndEventuallyCommitsInHtm) {
  // The reader ends before the writer's retry budget runs out: the writer
  // must commit in HTM (not the SGL), paying reader-aborts along the way.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = base_config(2);
  cfg.max_retries = 1000;
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] { platform::advance(30000); });
    } else {
      platform::advance(1000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  EXPECT_EQ(lock.stats().writes.htm, 1u);
  EXPECT_GE(lock.reader_abort_count(), 1u);
  EXPECT_EQ(x.v.raw_load(), 1u);
}

// The plane's statistics are lock-wide relaxed atomics that every thread
// bumps. On real threads (and under the TSan leg's -R RealThread) none may
// lose an increment: the totals equal the operations run, and the abort and
// commit counts equal the engine's, since this lock runs every transaction.
TEST(SpRWLStatsRealThread, CountersLoseNoIncrement) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOps = 1'000;
  htm::EngineConfig ec;
  ec.max_threads = kThreads;
  htm::Engine engine{ec};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, kThreads);
  cfg.reader_htm_first = false;  // every read lands on the plane's counter
  cfg.max_retries = 2;           // some writers fall back to the SGL
  SpRWLock lock{cfg};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::atomic<std::uint64_t> reads{0}, writes{0}, torn{0};
  sim::run_real_threads(kThreads, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) + 1);
    for (std::uint64_t i = 0; i < kOps; ++i) {
      if (rng.next_bool(0.25)) {
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          p.b.store(v);
        });
        writes.fetch_add(1, std::memory_order_relaxed);
      } else {
        lock.read(0, [&] {
          if (p.a.load() != p.b.load()) torn.fetch_add(1);
        });
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  ASSERT_EQ(reads.load() + writes.load(), kThreads * kOps);
  EXPECT_EQ(p.a.raw_load(), writes.load());
  const locks::LockStats s = lock.stats();
  const htm::EngineStats es = engine.stats();
  EXPECT_EQ(s.reads.unins, reads.load());
  EXPECT_EQ(s.reads.total(), reads.load());
  EXPECT_EQ(s.writes.htm + s.writes.gl, writes.load());
  EXPECT_EQ(s.writes.total(), writes.load());
  EXPECT_EQ(s.writes.htm, es.commits_htm);
  EXPECT_EQ(s.aborts.conflict, es.aborts_conflict);
  EXPECT_EQ(s.aborts.capacity, es.aborts_capacity);
  EXPECT_EQ(s.aborts.spurious, es.aborts_spurious);
  EXPECT_EQ(s.aborts.explicit_lock_busy + s.aborts.explicit_reader +
                s.aborts.explicit_other,
            es.aborts_explicit);
  EXPECT_EQ(s.aborts.explicit_reader, lock.reader_abort_count());
  EXPECT_GE(lock.commit_scan_count(), s.writes.htm);
}

}  // namespace
}  // namespace sprwl::core
