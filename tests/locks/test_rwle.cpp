#include "locks/rwle.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/platform.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "sim/simulator.h"

namespace sprwl::locks {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

RWLELock::Config config(int threads) {
  RWLELock::Config c;
  c.max_threads = threads;
  return c;
}

TEST(RWLE, ReadersAreUninstrumented) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 4};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(1)};
  std::vector<Cell> cells(32);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read(0, [&] {
      for (auto& c : cells) (void)c.v.load();  // way beyond capacity
    });
  });
  EXPECT_EQ(lock.stats().reads.unins, 1u);
  EXPECT_EQ(engine.stats().aborts_capacity, 0u);  // readers never enter HTM
}

TEST(RWLE, ShortWritersCommitInHtm) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  ThreadIdScope tid(0);
  RWLELock lock{config(1)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 50; ++i) {
      lock.write(1, [&] { x.v.store(x.v.load() + 1); });
    }
  });
  EXPECT_EQ(lock.stats().writes.htm, 50u);
  EXPECT_EQ(x.v.raw_load(), 50u);
}

TEST(RWLE, CapacityWritersUseRot) {
  // Writers beyond plain-HTM read capacity but within the ROT's
  // write-buffer limits must commit as ROTs, like on POWER8.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 8, 64};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(1)};
  std::vector<Cell> cells(32);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.write(1, [&] {
      for (auto& c : cells) c.v.store(c.v.load() + 1);  // reads > 8 lines
    });
  });
  EXPECT_EQ(lock.stats().writes.rot, 1u);
  for (auto& c : cells) EXPECT_EQ(c.v.raw_load(), 1u);
}

TEST(RWLE, RotWriterWaitsForOverlappingReader) {
  // The quiescence property: a ROT writer must not publish while a reader
  // that started before the publish is still active.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 64};  // writers -> ROT
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(2)};
  std::vector<Cell> cells(8);
  std::uint64_t reader_sum = ~0ULL;
  std::uint64_t writer_done_at = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {  // long reader starts first
      lock.read(0, [&] {
        std::uint64_t sum = 0;
        for (auto& c : cells) {
          sum += c.v.load();
          platform::advance(8000);
        }
        reader_sum = sum;
      });
    } else {  // writer arrives mid-reader
      platform::advance(10000);
      lock.write(1, [&] {
        for (auto& c : cells) c.v.store(c.v.load() + 1);
      });
      writer_done_at = platform::now();
    }
  });
  EXPECT_EQ(reader_sum, 0u);             // all-old snapshot
  EXPECT_GE(writer_done_at, 60000u);     // writer quiesced past the reader
  for (auto& c : cells) EXPECT_EQ(c.v.raw_load(), 1u);
}

TEST(RWLE, WriterLatencyGrowsWithReaderChurn) {
  // The paper's key observation: RW-LE writers pay quiescence proportional
  // to reader activity; with long churning readers, writer latency is far
  // above the critical-section length.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 64};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(4)};
  Cell x;
  std::uint64_t writer_total = 0;
  int writes = 0;
  sim::Simulator sim;
  sim.run(4, [&](int tid) {
    if (tid == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::uint64_t t0 = platform::now();
        lock.write(1, [&] { x.v.store(x.v.load() + 1); });
        writer_total += platform::now() - t0;
        ++writes;
        platform::advance(500);
      }
    } else {
      for (int i = 0; i < 60; ++i) {
        lock.read(0, [&] { platform::advance(5000); });
        platform::advance(200);
      }
    }
  });
  EXPECT_EQ(writes, 10);
  EXPECT_EQ(x.v.raw_load(), 10u);
  // Mean writer latency far exceeds the ~100-cycle critical section.
  EXPECT_GT(writer_total / 10, 3000u);
}

TEST(RWLE, TornFreeUnderMixedStress) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 6, 64};
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(8)};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) + 9);
    for (int i = 0; i < 100; ++i) {
      if (tid % 2 == 0) {
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          platform::advance(rng.next_below(300));
          p.b.store(v);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t a = p.a.load();
          platform::advance(rng.next_below(300));
          if (p.b.load() != a) ++torn;
        });
      }
      platform::advance(rng.next_below(100));
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(p.a.raw_load(), 400u);
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
}

// Write timeouts, with a reader parked in its section so the writer can
// never quiesce. `spurious_rate` picks where the deadline strikes: at 0 the
// writer capacity-aborts its HTM attempt and expires inside the ROT's
// quiescence; at 1.0 every HTM and ROT attempt aborts, and it expires in the
// pessimistic path's forced drain with the commit window held open. Either
// way the unwind must publish nothing, close the commit window and release
// the ROT lock. The writer thread proves the last two right away: its
// untimed read must get in while the parked reader is still inside (an
// open window would turn it away), and its untimed write must go through
// (a held ROT lock would stall its HTM path). The virtual-time cap turns a
// wedge into a failure instead of a hang.
constexpr std::uint64_t kReaderParks = 500'000;

struct WriteTimeoutRun {
  AcquireResult result = AcquireResult::kAcquired;
  std::uint64_t deadline = 0;
  std::uint64_t timed_out_at = 0;
  bool wrote_nothing = false;
  LockStats at_timeout;
  std::uint64_t engine_explicit_aborts = 0;
  std::uint64_t late_read_at = 0;
  bool late_write_done = false;
  std::uint64_t reader_sum = ~0ULL;
};

WriteTimeoutRun run_write_timeout(double spurious_rate) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 4, 64};  // writers -> ROT
  ecfg.spurious_abort_rate = spurious_rate;
  htm::Engine engine(ecfg);
  htm::EngineScope scope(engine);
  RWLELock lock{config(2)};
  std::vector<Cell> cells(8);
  const auto bump_all = [&] {
    for (auto& c : cells) c.v.store(c.v.load() + 1);
  };
  WriteTimeoutRun out;
  sim::SimConfig sc;
  sc.max_virtual_time = 5'000'000;
  sim::Simulator sim(sc);
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read(0, [&] {
        platform::advance(kReaderParks);
        std::uint64_t sum = 0;
        for (auto& c : cells) sum += c.v.load();
        out.reader_sum = sum;
      });
      return;
    }
    platform::wait_until(10'000);  // the reader is certainly inside
    out.deadline = platform::now() + 20'000;
    out.result = lock.try_write_for(1, 20'000, bump_all);
    out.timed_out_at = platform::now();
    out.wrote_nothing = true;
    for (auto& c : cells) out.wrote_nothing &= c.v.raw_load() == 0;
    out.at_timeout = lock.stats();
    out.engine_explicit_aborts = engine.stats().aborts_explicit;
    lock.read(0, [] {});
    out.late_read_at = platform::now();
    lock.write(1, bump_all);
    out.late_write_done = true;
  });
  for (auto& c : cells) EXPECT_EQ(c.v.raw_load(), 1u);
  return out;
}

TEST(RWLE, WriteTimeoutInsideRotQuiescenceUnwinds) {
  const WriteTimeoutRun r = run_write_timeout(0.0);
  EXPECT_EQ(r.result, AcquireResult::kTimeout);
  EXPECT_GE(r.timed_out_at, r.deadline);
  EXPECT_TRUE(r.wrote_nothing) << "a rolled-back ROT leaked a buffered write";
  // The HTM attempt hit capacity, the ROT ran, and its quiescence expired:
  // the kCodeTimeout self-abort is the only explicit abort, and the lock
  // does not count it as a retryable conflict.
  EXPECT_EQ(r.at_timeout.escalations.capacity, 1u);
  EXPECT_EQ(r.engine_explicit_aborts, 1u);
  EXPECT_EQ(r.at_timeout.aborts.explicit_other, 0u);
  EXPECT_EQ(r.at_timeout.writes.total(), 0u);
  EXPECT_LT(r.late_read_at, kReaderParks) << "commit window left open";
  EXPECT_TRUE(r.late_write_done);
  EXPECT_EQ(r.reader_sum, 0u);
}

TEST(RWLE, WriteTimeoutInForcedDrainUnwinds) {
  const WriteTimeoutRun r = run_write_timeout(1.0);
  EXPECT_EQ(r.result, AcquireResult::kTimeout);
  EXPECT_GE(r.timed_out_at, r.deadline);
  EXPECT_TRUE(r.wrote_nothing);
  // Every HTM and ROT attempt aborted, so both budgets were exhausted and
  // the deadline struck in the forced drain, before the section ran.
  EXPECT_EQ(r.at_timeout.aborts.spurious,
            static_cast<std::uint64_t>(RWLELock::kHtmRetries +
                                       RWLELock::kRotRetries));
  EXPECT_EQ(r.at_timeout.escalations.retry_exhausted, 2u);
  EXPECT_EQ(r.at_timeout.writes.total(), 0u);
  EXPECT_LT(r.late_read_at, kReaderParks) << "commit window left open";
  EXPECT_TRUE(r.late_write_done);
  EXPECT_EQ(r.reader_sum, 0u);
}

}  // namespace
}  // namespace sprwl::locks
