// SpRWL's pessimistic escape hatch: every path a writer can take off HTM
// onto the single global lock, and the accounting each leaves behind.
//  * retry exhaustion under a permanent interrupt storm,
//  * immediate fallback on a capacity abort (one attempt, no retries),
//  * the virtual-time retry budget (bounds storms when the attempt counter
//    alone would spin for a long time),
//  * lemming-effect avoidance (lock-busy aborts do not burn attempts),
//  * the versioned SGL admitting readers that arrive mid-storm, with
//    HTM-first readers in play.
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

TEST(SglFallback, RetryExhaustionUnderPermanentSpuriousAborts) {
  // Every transactional access aborts: each write must burn exactly
  // max_retries attempts and then complete pessimistically.
  htm::Engine engine{htm::EngineConfig{}};
  engine.set_spurious_abort_rate(1.0);
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 1);
  cfg.max_retries = 4;
  SpRWLock lock{cfg};

  Cell cell;
  constexpr std::uint64_t kWrites = 25;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      lock.write(1, [&] { cell.v.store(cell.v.load() + 1); });
    }
  });
  EXPECT_EQ(cell.v.raw_load(), kWrites);
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.writes.gl, kWrites);
  EXPECT_EQ(s.writes.htm, 0u);
  EXPECT_EQ(s.escalations.retry_exhausted, kWrites);
  EXPECT_EQ(s.aborts.spurious, kWrites * 4);  // max_retries attempts each
}

TEST(SglFallback, CapacityAbortFallsBackImmediately) {
  // A section that cannot fit must not be retried: one capacity abort, one
  // escalation, straight to the SGL.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 64, 1};
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  SpRWLock lock{Config::variant(SchedulingVariant::kNoSched, 1)};

  Cell a, b;  // two padded lines > 1-line write capacity
  constexpr std::uint64_t kWrites = 20;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      lock.write(1, [&] {
        const std::uint64_t v = a.v.load() + 1;
        a.v.store(v);
        b.v.store(v);
      });
    }
  });
  EXPECT_EQ(a.v.raw_load(), kWrites);
  EXPECT_EQ(b.v.raw_load(), kWrites);
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.writes.gl, kWrites);
  EXPECT_EQ(s.escalations.capacity, kWrites);
  EXPECT_EQ(s.aborts.capacity, kWrites);   // exactly one attempt per write
  EXPECT_EQ(s.aborts.total(), kWrites);    // and no other abort ever fired
}

TEST(SglFallback, RetryBudgetBoundsAStorm) {
  // With the attempt counter effectively unlimited, the virtual-time budget
  // is what stops a writer from spinning through a storm forever.
  htm::Engine engine{htm::EngineConfig{}};
  engine.set_spurious_abort_rate(1.0);
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 1);
  cfg.max_retries = 1'000'000;
  SpRWLock lock{cfg};

  Cell cell;
  constexpr std::uint64_t kWrites = 10;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      lock.write(1, [&] { cell.v.store(cell.v.load() + 1); });
    }
  });
  EXPECT_EQ(cell.v.raw_load(), kWrites);
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.writes.gl, kWrites);
  EXPECT_EQ(s.escalations.budget_exhausted, kWrites);
  EXPECT_EQ(s.escalations.retry_exhausted, 0u);
  // The backoff between attempts is what makes the budget bite: once it
  // reaches its cap, each attempt costs at least kBackoffMaxCycles, so a
  // write makes at most budget / cap attempts there, plus the seven of the
  // ramp up from kBackoffBaseCycles and the one that finds the budget
  // spent — not max_retries.
  constexpr std::uint64_t kPerWrite =
      SpRWLock::kWriterRetryBudgetCycles / SpRWLock::kBackoffMaxCycles + 8;
  EXPECT_LE(s.aborts.spurious, kWrites * kPerWrite);
}

TEST(SglFallback, LemmingAvoidanceKeepsWritersOffTheSgl) {
  // Writer 1 capacity-aborts every section and lives on the SGL back to
  // back; three small writers fit HTM easily but keep colliding with the
  // SGL tenure: a small writer that starts its transaction just as the SGL
  // is grabbed aborts with the lock-busy subscription code. Those aborts
  // say nothing about the small sections, so they must not burn retry
  // attempts — with max_retries = 1, a single burned attempt would throw
  // the small writer onto the SGL (the lemming effect). Any other abort
  // escalates before the backoff branch runs.
  static constexpr std::uint64_t kBig = 150, kSmall = 400;
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 64, 1};
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 4);
  cfg.max_retries = 1;  // tight: any burned attempt escalates immediately
  SpRWLock lock{cfg};

  Cell big_a, big_b;
  std::vector<Cell> small(3);
  sim::Simulator sim;
  sim.run(4, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) * 31 + 7);
    if (tid == 0) {
      for (std::uint64_t i = 0; i < kBig; ++i) {
        lock.write(1, [&] {  // two lines: always capacity -> always SGL
          const std::uint64_t v = big_a.v.load() + 1;
          platform::advance(400);
          big_a.v.store(v);
          big_b.v.store(v);
        });
        platform::advance(rng.next_below(200));
      }
    } else {
      auto& mine = small[static_cast<std::size_t>(tid - 1)];
      for (std::uint64_t i = 0; i < kSmall; ++i) {
        lock.write(2 + tid, [&] {  // one line: fits HTM
          mine.v.store(mine.v.load() + 1);
          platform::advance(100);
        });
        platform::advance(rng.next_below(150));
      }
    }
  });
  EXPECT_EQ(big_a.v.raw_load(), kBig);
  for (auto& c : small) EXPECT_EQ(c.v.raw_load(), kSmall);
  const locks::LockStats s = lock.stats();
  // The run hits the SGL-busy subscription abort (the contention is real),
  // and every lock-busy abort is forgiven — visibly so.
  EXPECT_GT(s.aborts.explicit_lock_busy, 0u);
  EXPECT_EQ(s.escalations.lemming_avoided, s.aborts.explicit_lock_busy);
  // No section is lost.
  EXPECT_EQ(s.writes.total(), kBig + 3 * kSmall);
}

TEST(SglFallback, VersionedSglAdmitsHtmFirstReadersDuringAStorm) {
  // Readers with the default HTM-first policy arriving during a
  // back-to-back SGL writer storm: the versioned lock must admit them
  // within one generation, and their snapshots must never be torn.
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"tiny", 64, 1};
  htm::Engine engine{ecfg};
  htm::EngineScope scope(engine);
  Config cfg = Config::variant(SchedulingVariant::kNoSched, 6);
  cfg.versioned_sgl = true;
  cfg.reader_htm_first = true;
  SpRWLock lock{cfg};

  Cell a, b;
  std::vector<std::uint64_t> entered(4, 0);
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(6, [&](int tid) {
    if (tid < 4) {  // readers arriving mid-storm
      platform::advance(2'000 + static_cast<std::uint64_t>(tid) * 700);
      lock.read(0, [&] {
        entered[static_cast<std::size_t>(tid)] = platform::now();
        const std::uint64_t x = a.v.load();
        platform::advance(300);
        if (b.v.load() != x) ++torn;
      });
    } else {
      for (int i = 0; i < 40; ++i) {
        lock.write(1, [&] {
          const std::uint64_t v = a.v.load() + 1;
          a.v.store(v);
          platform::advance(1'500);
          b.v.store(v);
        });
      }
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(a.v.raw_load(), 80u);
  EXPECT_EQ(a.v.raw_load(), b.v.raw_load());
  for (int t = 0; t < 4; ++t) {
    EXPECT_GT(entered[static_cast<std::size_t>(t)], 0u);
    EXPECT_LT(entered[static_cast<std::size_t>(t)], 80'000u) << "reader " << t;
  }
  const locks::LockStats s = lock.stats();
  EXPECT_EQ(s.reads.total(), 4u);
  EXPECT_EQ(s.escalations.capacity, 80u);  // every write went via the SGL
}

}  // namespace
}  // namespace sprwl::core
