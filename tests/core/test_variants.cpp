// Configuration variants: the Fig. 5 ablation presets, the SNZI reader
// tracking scheme, the reader-HTM-first optimization and the versioned-SGL
// starvation fix.
#include <gtest/gtest.h>

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

TEST(SpRWLVariants, PresetsToggleTheRightKnobs) {
  const Config nosched = Config::variant(SchedulingVariant::kNoSched, 8);
  EXPECT_FALSE(nosched.reader_sync());
  EXPECT_FALSE(nosched.reader_join());
  EXPECT_FALSE(nosched.writer_sync());

  const Config rwait = Config::variant(SchedulingVariant::kRWait, 8);
  EXPECT_TRUE(rwait.reader_sync());
  EXPECT_FALSE(rwait.reader_join());
  EXPECT_FALSE(rwait.writer_sync());

  const Config rsync = Config::variant(SchedulingVariant::kRSync, 8);
  EXPECT_TRUE(rsync.reader_sync());
  EXPECT_TRUE(rsync.reader_join());
  EXPECT_FALSE(rsync.writer_sync());

  const Config full = Config::variant(SchedulingVariant::kFull, 8);
  EXPECT_TRUE(full.reader_sync());
  EXPECT_TRUE(full.reader_join());
  EXPECT_TRUE(full.writer_sync());
  EXPECT_EQ(full.max_threads, 8);
  EXPECT_EQ(full.scheduling, SchedulingVariant::kFull);
}

TEST(SpRWLVariants, SnziVariantPreservesSafety) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 8);
  cfg.tracking = Tracking::kSnzi;
  cfg.reader_htm_first = false;
  SpRWLock lock{cfg};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    for (int i = 0; i < 100; ++i) {
      if (tid % 4 == 0) {
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          platform::advance(300);
          p.b.store(v);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t a = p.a.load();
          platform::advance(300);
          if (p.b.load() != a) ++torn;
        });
      }
      platform::advance(50);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
  EXPECT_EQ(p.a.raw_load(), 200u);
}

TEST(SpRWLVariants, SnziWriterAbortsOnActiveReader) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 2);
  cfg.tracking = Tracking::kSnzi;
  cfg.reader_htm_first = false;
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] { platform::advance(50000); });
    } else {
      platform::advance(5000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  EXPECT_GE(lock.reader_abort_count(), 1u);
  EXPECT_EQ(x.v.raw_load(), 1u);
}

TEST(SpRWLVariants, ReaderHtmFirstCommitsShortReadersInHardware) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 2);
  cfg.reader_htm_first = true;
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 10; ++i) {
      lock.read(0, [&] { (void)x.v.load(); });
    }
  });
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.reads.htm, 10u);
  EXPECT_EQ(s.reads.unins, 0u);
}

TEST(SpRWLVariants, ReaderHtmFirstFallsBackOnCapacity) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 8, 8};
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 2);
  cfg.reader_htm_first = true;
  SpRWLock lock{cfg};
  std::vector<Cell> cells(32);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read(0, [&] {
      for (auto& c : cells) (void)c.v.load();
    });
  });
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.reads.unins, 1u);
  EXPECT_EQ(s.reads.htm, 0u);
  EXPECT_GE(engine.stats().aborts_capacity, 1u);
}

TEST(SpRWLVariants, ReaderHtmFirstRunsConcurrentlyWithLongWriter) {
  // Footnote 4 / Section 3.4: a short reader should overlap an active
  // HTM writer instead of waiting for it, because it executes as a
  // transaction itself.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 2);
  SpRWLock lock{cfg};
  Cell x, y;
  std::uint64_t reader_done_at = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // long writer on x
      lock.write(1, [&] {
        x.v.store(1);
        platform::advance(50000);
      });
    } else {  // short reader on y (no data conflict)
      platform::advance(2000);
      lock.read(0, [&] { (void)y.v.load(); });
      reader_done_at = platform::now();
    }
  });
  EXPECT_LT(reader_done_at, 20000u);  // finished well before the writer
  EXPECT_EQ(lock.stats().reads.htm, 1u);
}

TEST(SpRWLVariants, VersionedSglGivesWaitingReaderPriority) {
  // Section 3.3: with a stream of SGL writers, a versioned SGL admits the
  // waiting reader after one lock generation instead of letting writers
  // starve it. We verify the reader completes while writers are still
  // queueing (versioned) — and that safety holds.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 64, 1};  // all writers -> SGL
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 3);
  cfg.reader_htm_first = false;
  cfg.versioned_sgl = true;
  SpRWLock lock{cfg};
  Cell a, b;
  std::uint64_t reader_done_at = 0;
  std::uint64_t writers_done_at = 0;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(3, [&](int tid) {
    if (tid == 0) {  // reader arriving into a writer storm
      platform::advance(3000);
      lock.read(0, [&] {
        const std::uint64_t x = a.v.load();
        platform::advance(500);
        if (b.v.load() != x) ++torn;
      });
      reader_done_at = platform::now();
    } else {  // back-to-back SGL writers
      for (int i = 0; i < 40; ++i) {
        lock.write(1, [&] {
          const std::uint64_t v = a.v.load() + 1;
          a.v.store(v);
          platform::advance(2000);
          b.v.store(v);
        });
      }
      writers_done_at = platform::now();
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 80u);
  EXPECT_EQ(a.v.raw_load(), b.v.raw_load());
  // The reader got in long before the writer storm drained.
  EXPECT_LT(reader_done_at, writers_done_at);
}

TEST(SpRWLVariants, EmaSlotsHandleManyCriticalSectionIds) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kFull, 1);
  SpRWLock lock{cfg};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int cs = 0; cs < 1000; ++cs) {
      lock.write(cs, [&] { x.v.store(static_cast<std::uint64_t>(cs)); });
      lock.read(cs + 1000, [&] { (void)x.v.load(); });
    }
  });
  EXPECT_EQ(lock.stats().writes.total(), 1000u);
  EXPECT_EQ(lock.stats().reads.total(), 1000u);
}

}  // namespace
}  // namespace sprwl::core
