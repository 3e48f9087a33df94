// Schedule pins and switch-count invariants of the uncontrolled scheduler.
// The digests were taken while a trampoline scheduler and a
// std::priority_queue scheduler still ran beside this one and produced the
// same schedules, so any change to the (time, id) order fails here.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/schedule_digest.h"

namespace sprwl::sim {
namespace {

struct ModeRun {
  std::vector<int> order;       // fiber activations in execution order
  std::uint64_t final_time = 0;
  SimStats stats;
};

// A heavily interleaving workload: per-fiber step costs are coprime-ish so
// fibers constantly overtake each other and almost every advance yields.
ModeRun run_mode(int nfibers, int steps) {
  Simulator sim;
  ModeRun r;
  sim.run(nfibers, [&](int tid) {
    for (int i = 0; i < steps; ++i) {
      platform::advance(static_cast<std::uint64_t>(3 + (tid * 7 + i) % 11));
      r.order.push_back(tid);
    }
  });
  r.final_time = sim.final_time();
  r.stats = sim.stats();
  return r;
}

TEST(SchedulerModes, IdenticalScheduleAcrossAllThreeModes) {
  const ModeRun a = run_mode(9, 200);
  ASSERT_EQ(a.order.size(), 9u * 200u);
  EXPECT_EQ(testutil::schedule_digest(a.order, a.final_time),
            0x659d2021ecbe0e96ULL);
  EXPECT_EQ(a.final_time, 1609u);
}

TEST(SchedulerModes, SwitchCountInvariants) {
  constexpr int kFibers = 7;
  const ModeRun a = run_mode(kFibers, 150);
  EXPECT_EQ(testutil::schedule_digest(a.order, a.final_time),
            0xd16d97f9639fe1e6ULL);
  // Total activations are a property of the schedule.
  EXPECT_EQ(a.stats.switches, 1029u);

  // The scheduler activates a fiber when the run starts and after every
  // exit but the last, once per fiber in all; every other activation is
  // fiber→fiber.
  EXPECT_EQ(a.stats.direct_switches,
            a.stats.switches - static_cast<std::uint64_t>(kFibers));
}

TEST(SchedulerModes, DirectSwitchHeapTrafficMatchesActivations) {
  const ModeRun a = run_mode(5, 100);
  // Every push has a matching pop: the heap drains completely.
  EXPECT_EQ(a.stats.heap_pushes, a.stats.heap_pops);
}

// The livelock bound auto-derives from the fiber count (64 + 16 * n):
// queue-lock handoff chains get longer with more parked waiters, so a flat
// constant misreads healthy MCS handoffs as livelock at 8+ threads.
// Explicit values are honoured unchanged (livelock tests pin small ones).
TEST(SchedulerModes, NoProgressBoundAutoDerivesFromThreadCount) {
  SimConfig sc;
  EXPECT_EQ(sc.no_progress_bound, 0);  // auto is the default
  EXPECT_EQ(sc.resolved_no_progress_bound(1), 64 + 16);
  EXPECT_EQ(sc.resolved_no_progress_bound(8), 64 + 128);
  EXPECT_EQ(sc.resolved_no_progress_bound(64), 64 + 1024);
  EXPECT_EQ(sc.resolved_no_progress_bound(0), 64 + 16);  // degenerate
  sc.no_progress_bound = 7;
  EXPECT_EQ(sc.resolved_no_progress_bound(64), 7);
}

TEST(SchedulerModes, LegacyModeStatsResetBetweenRuns) {
  Simulator sim;
  sim.run(4, [](int) { platform::advance(10); });
  const std::uint64_t first = sim.stats().switches;
  sim.run(4, [](int) { platform::advance(10); });
  EXPECT_EQ(sim.stats().switches, first);  // reset, not accumulated
}

}  // namespace
}  // namespace sprwl::sim
