// Unit tests for the fault-injection subsystem: the simulator's deschedule
// hook, each FaultPlan mechanism in isolation, and the seed-replay override.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/platform.h"
#include "core/sprwl.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/tle.h"
#include "sim/simulator.h"

namespace sprwl::fault {
namespace {

TEST(DescheduleHook, JumpsTheFiberClockAndCounts) {
  sim::Simulator sim;
  std::uint64_t resumed_at = 0;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      platform::advance(100);
      sim.deschedule_current_until(50'000);
      resumed_at = platform::now();
    } else {
      platform::advance(10'000);
    }
  });
  EXPECT_GE(resumed_at, 50'000u);
  EXPECT_EQ(sim.preemptions(), 1u);
  EXPECT_GE(sim.final_time(), 50'000u);
}

TEST(DescheduleHook, OtherFibersRunInTheGap) {
  // While fiber 0 is descheduled, fiber 1's work fills the interval — the
  // preempted fiber performs no work, it does not stop the world.
  sim::Simulator sim;
  std::uint64_t t1_done = 0;
  std::uint64_t t0_resumed = 0;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      sim.deschedule_current_until(20'000);
      t0_resumed = platform::now();
    } else {
      platform::advance(5'000);
      t1_done = platform::now();
    }
  });
  EXPECT_EQ(t1_done, 5'000u);
  EXPECT_GE(t0_resumed, 20'000u);
}

TEST(DescheduleHook, NoOpOutsideAFiber) {
  sim::Simulator sim;
  sim.deschedule_current_until(1'000'000);  // must not crash or count
  EXPECT_EQ(sim.preemptions(), 0u);
}

TEST(Preempt, FiresAtMatchingPointAndTidOnly) {
  sim::Simulator sim;
  FaultPlan plan;
  PreemptSpec s;
  s.point = SchedKind::kReadBody;
  s.tid = 1;
  s.duration = 30'000;
  s.count = 1;
  plan.preempts.push_back(s);
  FaultInjector injector(plan, &sim, nullptr);
  FaultScope scope(injector);

  std::vector<std::uint64_t> after(2, 0);
  sim.run(2, [&](int tid) {
    checkpoint(SchedKind::kWriteBody);  // wrong point: must not fire
    checkpoint(SchedKind::kReadBody);   // fires for tid 1 only
    checkpoint(SchedKind::kReadBody);   // count spent: must not fire again
    after[static_cast<std::size_t>(tid)] = platform::now();
  });
  EXPECT_LT(after[0], 30'000u);
  EXPECT_GE(after[1], 30'000u);
  EXPECT_EQ(injector.stats().preemptions, 1u);
  EXPECT_EQ(sim.preemptions(), 1u);
}

TEST(Preempt, AbortsAnInFlightTransaction) {
  // A context switch kills a best-effort hardware transaction: preempting
  // inside try_transaction must surface as a spurious abort, not a commit.
  htm::Engine engine;
  htm::EngineScope escope(engine);
  sim::Simulator sim;
  FaultPlan plan;
  PreemptSpec s;
  s.point = SchedKind::kWriteBody;
  s.duration = 10'000;
  plan.preempts.push_back(s);
  FaultInjector injector(plan, &sim, &engine);
  FaultScope scope(injector);

  htm::Shared<std::uint64_t> cell;
  htm::TxStatus first{};
  std::uint64_t commits = 0;
  sim.run(1, [&](int) {
    for (int i = 0; i < 3; ++i) {
      const htm::TxStatus st = engine.try_transaction([&] {
        cell.store(cell.load() + 1);
        checkpoint(SchedKind::kWriteBody);
      });
      if (i == 0) first = st;
      if (st.committed()) ++commits;
    }
  });
  EXPECT_EQ(first.cause, htm::AbortCause::kSpurious);
  EXPECT_EQ(commits, 2u);           // the preempt had count 1
  EXPECT_EQ(cell.raw_load(), 2u);   // the aborted attempt left no trace
}

TEST(AbortStorm, RampsUpAndRestoresTheBaseRate) {
  htm::Engine engine{htm::EngineConfig{}};
  engine.set_spurious_abort_rate(0.01);  // configured base rate
  sim::Simulator sim;
  FaultPlan plan;
  plan.storm.from = 10'000;
  plan.storm.until = 20'000;
  plan.storm.peak_rate = 0.5;
  FaultInjector injector(plan, &sim, &engine);
  FaultScope scope(injector);

  double before = -1.0, mid = -1.0, after = -1.0;
  sim.run(1, [&](int) {
    checkpoint(SchedKind::kReadBody);
    before = engine.spurious_abort_rate();
    platform::advance(15'000);  // exact midpoint of the window
    checkpoint(SchedKind::kReadBody);
    mid = engine.spurious_abort_rate();
    platform::advance(15'000);
    checkpoint(SchedKind::kReadBody);
    after = engine.spurious_abort_rate();
  });
  EXPECT_DOUBLE_EQ(before, 0.01);
  EXPECT_DOUBLE_EQ(mid, 0.51);    // base + full peak at the triangle apex
  EXPECT_DOUBLE_EQ(after, 0.01);  // restored, not clobbered to zero
  EXPECT_DOUBLE_EQ(injector.stats().peak_applied_rate, 0.51);
}

TEST(CapacityJitter, ShrinksCapacityInsideTheWindowOnly) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::CapacityProfile{"small", 8, 8};
  htm::Engine engine{ecfg};
  htm::EngineScope escope(engine);
  sim::Simulator sim;
  FaultPlan plan;
  plan.jitter.from = 0;
  plan.jitter.until = 50'000;
  plan.jitter.min_scale = 0.2;  // 8 lines * 0.2 = 1.6 -> at most 1-6 lines
  plan.jitter.max_scale = 0.2;
  FaultInjector injector(plan, &sim, &engine);
  FaultScope scope(injector);

  struct alignas(64) Cell { htm::Shared<std::uint64_t> v; };
  std::vector<Cell> cells(4);
  htm::TxStatus inside{}, outside{};
  sim.run(1, [&](int) {
    checkpoint(SchedKind::kWriteBody);  // applies the jitter
    inside = engine.try_transaction([&] {
      for (auto& c : cells) c.v.store(1);  // 4 lines > jittered capacity
    });
    platform::advance(60'000);            // leave the window
    checkpoint(SchedKind::kWriteBody);  // restores the base profile
    outside = engine.try_transaction([&] {
      for (auto& c : cells) c.v.store(2);  // 4 lines <= 8: fits again
    });
  });
  EXPECT_EQ(inside.cause, htm::AbortCause::kCapacity);
  EXPECT_TRUE(outside.committed());
  EXPECT_GT(injector.stats().capacity_jitters, 0u);
}

TEST(Syscall, AbortsInsideATransactionChargesTimeOutside) {
  htm::Engine engine;
  htm::EngineScope escope(engine);
  sim::Simulator sim;
  htm::TxStatus in_tx{};
  std::uint64_t charged = 0;
  sim.run(1, [&](int) {
    in_tx = engine.try_transaction([&] { engine.syscall(1'000); });
    const std::uint64_t t0 = platform::now();
    engine.syscall(1'000);
    charged = platform::now() - t0;
  });
  EXPECT_EQ(in_tx.cause, htm::AbortCause::kSpurious);
  EXPECT_EQ(charged, 1'000u);
}

TEST(Syscall, WindowForcesHtmFirstReadersUninstrumented) {
  // The decisive SpRWL scenario: a reader that performs a syscall can never
  // commit in HTM, so every section inside the window must land on the
  // uninstrumented path — and still succeed. The same syscalls push TLE's
  // readers onto its global lock.
  htm::Engine engine;
  htm::EngineScope escope(engine);
  core::Config cfg = core::Config::variant(core::SchedulingVariant::kNoSched, 1);
  cfg.reader_htm_first = true;
  core::SpRWLock sprwl{cfg};
  locks::TLELock tle{locks::TLELock::Config{}};

  sim::Simulator sim;
  FaultPlan plan;
  SyscallSpec s;  // default window [0, inf): every read hits a syscall
  plan.syscalls.push_back(s);
  FaultInjector injector(plan, &sim, &engine);
  FaultScope scope(injector);

  htm::Shared<std::uint64_t> cell;
  cell.raw_store(7);
  std::uint64_t seen = 0;
  sim.run(1, [&](int) {
    for (int i = 0; i < 20; ++i) {
      sprwl.read(0, [&] {
        checkpoint(SchedKind::kReadBody);
        seen += cell.load();
      });
      tle.read(0, [&] {
        checkpoint(SchedKind::kReadBody);
        seen += cell.load();
      });
    }
  });
  EXPECT_EQ(seen, 2u * 20u * 7u);
  const locks::LockStats sp = sprwl.stats();
  EXPECT_EQ(sp.reads.unins, 20u);  // all fell back, none stuck in HTM
  EXPECT_EQ(sp.reads.htm, 0u);
  EXPECT_GT(sp.aborts.spurious, 0u);  // the syscall aborts were attributed
  const locks::LockStats tl = tle.stats();
  EXPECT_EQ(tl.reads.gl, 20u);  // TLE has no uninstrumented path to save it
  EXPECT_GT(tl.escalations.retry_exhausted, 0u);
  EXPECT_EQ(injector.stats().syscalls > 0, true);
}

TEST(FaultPlanChaos, IsDeterministicInItsSeed) {
  const FaultPlan a = FaultPlan::chaos(123, 8, 1'000'000);
  const FaultPlan b = FaultPlan::chaos(123, 8, 1'000'000);
  const FaultPlan c = FaultPlan::chaos(124, 8, 1'000'000);
  ASSERT_EQ(a.preempts.size(), b.preempts.size());
  for (std::size_t i = 0; i < a.preempts.size(); ++i) {
    EXPECT_EQ(a.preempts[i].tid, b.preempts[i].tid);
    EXPECT_EQ(a.preempts[i].not_before, b.preempts[i].not_before);
    EXPECT_EQ(a.preempts[i].duration, b.preempts[i].duration);
  }
  EXPECT_EQ(a.storm.from, b.storm.from);
  EXPECT_DOUBLE_EQ(a.storm.peak_rate, b.storm.peak_rate);
  // Different seeds produce different schedules (with overwhelming
  // probability; these two differ).
  const bool same = a.preempts.size() == c.preempts.size() &&
                    a.storm.from == c.storm.from &&
                    (a.preempts.empty() || a.preempts[0].not_before ==
                                               c.preempts[0].not_before);
  EXPECT_FALSE(same);
}

TEST(EnvSeed, OverridesTheFallback) {
  ::unsetenv("SPRWL_SEED");
  EXPECT_EQ(env_seed(42), 42u);
  ::setenv("SPRWL_SEED", "777", 1);
  EXPECT_EQ(env_seed(42), 777u);
  ::setenv("SPRWL_SEED", "12x", 1);  // garbage: fall back
  EXPECT_EQ(env_seed(42), 42u);
  ::setenv("SPRWL_SEED", "", 1);
  EXPECT_EQ(env_seed(42), 42u);
  ::unsetenv("SPRWL_SEED");
}

}  // namespace
}  // namespace sprwl::fault
