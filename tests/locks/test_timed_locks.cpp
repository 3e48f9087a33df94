// The deadline-aware acquisition API (try_read_for / try_write_for)
// across the lock family: entry validation (checked_deadline), the
// kNoDeadline budget behaving exactly like the untimed entry points, real
// timeouts under a held lock with full unwind, and the concept gating
// which locks participate at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "core/bravo.h"
#include "core/sprwl.h"
#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/rwlock_concept.h"
#include "sim/simulator.h"

#include "lock_test_utils.h"

namespace sprwl::locks {
namespace {

// Which locks model cancellation is a compile-time contract: consumers
// (the checker's timed workloads, the tail-latency bench) gate on the
// concept instead of assuming it. MCS-RW is deliberately out — its queue
// node cannot be abandoned without an abortable-MCS protocol (DESIGN.md
// §13) — but remains a full RegionRWLock.
static_assert(TimedRegionRWLock<core::SpRWLock>);
static_assert(TimedRegionRWLock<PosixRWLock>);
static_assert(TimedRegionRWLock<BRLock>);
static_assert(TimedRegionRWLock<PhaseFairRWLock>);
static_assert(TimedRegionRWLock<PassiveRWLock>);
static_assert(TimedRegionRWLock<TLELock>);
static_assert(TimedRegionRWLock<RWLELock>);
static_assert(!TimedRegionRWLock<McsRWLock>);
static_assert(RegionRWLock<McsRWLock>);

template <class Lock>
class TimedLocks : public ::testing::Test {};
using TimedLockTypes =
    ::testing::Types<PosixRWLock, BRLock, PhaseFairRWLock, PassiveRWLock,
                     TLELock, RWLELock, core::SpRWLock>;
TYPED_TEST_SUITE(TimedLocks, TimedLockTypes);

// checked_tid convention for deadlines: a zero budget is a caller bug
// (try-lock semantics belong to an explicit API, not a degenerate
// deadline) and is rejected loudly at entry, before any lock state is
// touched — the body must never run.
TYPED_TEST(TimedLocks, ZeroBudgetRejectedAtEntry) {
  htm::Engine engine;
  htm::EngineScope scope(engine);
  auto lock = testutil::make_lock<TypeParam>(2);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    bool ran = false;
    EXPECT_THROW(lock->try_read_for(0, 0, [&] { ran = true; }),
                 std::invalid_argument);
    EXPECT_THROW(lock->try_write_for(1, 0, [&] { ran = true; }),
                 std::invalid_argument);
    EXPECT_FALSE(ran);
  });
}

// A budget that would wrap the virtual clock must not silently become a
// deadline in the past.
TYPED_TEST(TimedLocks, OverflowingBudgetRejectedAtEntry) {
  htm::Engine engine;
  htm::EngineScope scope(engine);
  auto lock = testutil::make_lock<TypeParam>(2);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    platform::advance(64);  // now() > 0, so ~0-1 cannot fit
    bool ran = false;
    EXPECT_THROW(lock->try_read_for(0, ~std::uint64_t{0} - 1,
                                    [&] { ran = true; }),
                 std::invalid_argument);
    EXPECT_THROW(lock->try_write_for(1, ~std::uint64_t{0} - 1,
                                     [&] { ran = true; }),
                 std::invalid_argument);
    EXPECT_FALSE(ran);
  });
}

// The kNoDeadline budget is the untimed path (every expiry check is a
// not-taken branch on a free clock read): always kAcquired, body runs.
TYPED_TEST(TimedLocks, NoDeadlineBudgetAcquiresLikeUntimed) {
  htm::Engine engine;
  htm::EngineScope scope(engine);
  auto lock = testutil::make_lock<TypeParam>(2);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    int reads = 0, writes = 0;
    EXPECT_EQ(lock->try_write_for(1, kNoDeadline, [&] { ++writes; }),
              AcquireResult::kAcquired);
    EXPECT_EQ(lock->try_read_for(0, kNoDeadline, [&] { ++reads; }),
              AcquireResult::kAcquired);
    EXPECT_EQ(reads, 1);
    EXPECT_EQ(writes, 1);
  });
}

TYPED_TEST(TimedLocks, GenerousBudgetAcquiresUncontended) {
  htm::Engine engine;
  htm::EngineScope scope(engine);
  auto lock = testutil::make_lock<TypeParam>(2);
  sim::Simulator sim;
  sim.run(1, [&](int) {
    int ran = 0;
    EXPECT_EQ(lock->try_read_for(0, 10'000'000, [&] { ++ran; }),
              AcquireResult::kAcquired);
    EXPECT_EQ(lock->try_write_for(1, 10'000'000, [&] { ++ran; }),
              AcquireResult::kAcquired);
    EXPECT_EQ(ran, 2);
  });
}

// Pessimistic baselines, where "the lock is held" is unambiguous: a
// writer parks inside the section for 500k cycles while a timed reader
// and a timed writer (20k budgets) must report kTimeout — and the unwind
// must be complete, proven by the same threads then acquiring untimed.
// A leaked waiter count (PosixRWLock's writers_waiting_, PhaseFair's
// rin/wout protocol words, PRWL's writer_present_) would wedge those
// follow-up acquisitions and trip the simulator's time watchdog instead.
template <class Lock>
class PessimisticTimed : public ::testing::Test {};
using PessimisticTimedTypes =
    ::testing::Types<PosixRWLock, BRLock, PhaseFairRWLock, PassiveRWLock>;
TYPED_TEST_SUITE(PessimisticTimed, PessimisticTimedTypes);

TYPED_TEST(PessimisticTimed, TimeoutUnderHeldWriteLockThenCleanReacquire) {
  auto lock = testutil::make_lock<TypeParam>(3);
  struct alignas(64) Cell {
    htm::Shared<std::uint64_t> v;
  };
  Cell cell;
  int read_timeouts = 0, write_timeouts = 0;
  int late_reads = 0, late_writes = 0;
  sim::Simulator sim;
  sim.run(3, [&](int tid) {
    if (tid == 0) {
      lock->write(1, [&] {
        cell.v.store(1);
        platform::advance(500'000);
      });
    } else if (tid == 1) {
      platform::wait_until(10'000);  // holder is certainly inside by now
      if (lock->try_read_for(0, 20'000, [] {}) == AcquireResult::kTimeout) {
        ++read_timeouts;
      }
      // Unwind proof: the untimed read must go through once released. The
      // other thread's late write may or may not have landed yet, so only
      // the holder's store is certain.
      lock->read(0, [&] { late_reads += cell.v.load() >= 1 ? 1 : 0; });
    } else {
      platform::wait_until(10'000);
      if (lock->try_write_for(1, 20'000, [] {}) == AcquireResult::kTimeout) {
        ++write_timeouts;
      }
      lock->write(1, [&] {
        cell.v.store(cell.v.load() + 1);
        ++late_writes;
      });
    }
  });
  EXPECT_EQ(read_timeouts, 1);
  EXPECT_EQ(write_timeouts, 1);
  EXPECT_EQ(late_reads, 1);
  EXPECT_EQ(late_writes, 1);
  EXPECT_EQ(cell.v.raw_load(), 2u);
}

// The deadline-keyed wakeup (locks::deadline_pause): a spin whose expiry
// would land mid-pause sleeps on a simulator wakeup to exactly the
// deadline, so the caller's next expiry check observes now == deadline
// precisely — not the next multiple of g_costs.pause past it. Exact
// virtual-time regression: each equality below fails if the wait is
// quantized back to whole pauses.
TEST(DeadlineWakeup, PauseLoopExpiresAtExactVirtualTime) {
  sim::Simulator sim;
  sim.run(1, [&](int) {
    // Budget 103 = 2 full pauses (80) + a 23-cycle tail: the tail must be
    // slept exactly, not rounded up to 120.
    std::uint64_t d = platform::now() + 103;
    while (!deadline_expired(d)) deadline_pause(d);
    EXPECT_EQ(platform::now(), d);
    // A budget that IS a multiple of the pause cost also lands exactly.
    d = platform::now() + 2 * g_costs.pause;
    while (!deadline_expired(d)) deadline_pause(d);
    EXPECT_EQ(platform::now(), d);
    // kNoDeadline compiles to the plain pause — one pause charge plus the
    // simulator's deterministic 0..15-cycle spin jitter (simulator.cpp),
    // never a timed wakeup — so untimed traces stay byte-identical.
    const std::uint64_t t0 = platform::now();
    deadline_pause(kNoDeadline);
    EXPECT_GE(platform::now(), t0 + g_costs.pause);
    EXPECT_LT(platform::now(), t0 + g_costs.pause + 16);
  });
}

// The same property end to end through SglLock::lock_until: a waiter
// blocked on a held lock times out within one lock-word load of its
// deadline — the expiry is discovered either by the load right after the
// exact-deadline wakeup, or by a load that itself crossed the deadline —
// never a whole pause quantum late, which is what this pins down.
TEST(DeadlineWakeup, SglLockUntilTimesOutAtExactDeadline) {
  SglLock gl;
  std::uint64_t observed = 0, deadline = 0;
  bool acquired = true;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      EXPECT_TRUE(gl.lock_until(kNoDeadline));
      platform::advance(500'000);
      gl.unlock();
    } else {
      platform::wait_until(10'000);  // the holder is certainly inside
      deadline = platform::now() + 1'003;
      acquired = gl.lock_until(deadline);
      observed = platform::now();
    }
  });
  EXPECT_FALSE(acquired);
  EXPECT_GE(observed, deadline);
  EXPECT_LE(observed, deadline + g_costs.load)
      << "timeout drifted off the deadline-keyed wakeup";
}

// Concurrency stress on REAL threads (the TSan CI leg: -R
// 'TimeoutRealThread'): timed readers with an always-expiring budget and a
// comfortable one racing writer revocations over the bravo table, under
// actual preemption. Every unwind races a concurrent revocation drain; at
// the end no tracking state and no table slot may survive.
TEST(TimeoutRealThread, StressTimedReadersVsRevocationsLeaveNoResidue) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  bravo::ReaderTable::Config tc;
  tc.max_threads = 8;
  auto table = std::make_shared<bravo::ReaderTable>(tc);
  core::Config cfg;
  cfg.max_threads = 8;
  cfg.reader_htm_first = false;
  cfg.bravo_bias = true;
  cfg.bravo_table = table;
  core::SpRWLock lock{cfg};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> timeouts{0};
  sim::run_real_threads(8, [&](int tid) {
    for (int i = 0; i < 200; ++i) {
      if (tid % 4 == 0) {
        const auto r = lock.try_write_for(1, i % 2 ? 1 : 400'000'000, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          p.b.store(v);
        });
        if (r == locks::AcquireResult::kAcquired) {
          commits.fetch_add(1);
        } else {
          timeouts.fetch_add(1);
        }
      } else {
        // Budget 1 expires before the first expiry check can pass: the
        // occupy-expire-release unwind runs even uncontended, every time.
        const auto r = lock.try_read_for(0, i % 2 ? 1 : 400'000'000, [&] {
          if (p.a.load() != p.b.load()) torn.fetch_add(1);
        });
        if (r != locks::AcquireResult::kAcquired) timeouts.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(p.a.raw_load(), commits.load());
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
  EXPECT_GT(timeouts.load(), 0u);
  EXPECT_TRUE(lock.tracking_quiescent()) << "phantom reader state";
  EXPECT_TRUE(table->all_slots_empty_raw()) << "leaked ReaderTable slot";
}

}  // namespace
}  // namespace sprwl::locks
