#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/costs.h"

namespace sprwl::sim {
namespace {

TEST(Simulator, RunsEveryFiberExactlyOnce) {
  Simulator sim;
  std::vector<int> ran(8, 0);
  sim.run(8, [&](int tid) { ++ran[static_cast<std::size_t>(tid)]; });
  for (int r : ran) EXPECT_EQ(r, 1);
}

TEST(Simulator, ZeroThreadsIsANoOp) {
  Simulator sim;
  sim.run(0, [&](int) { FAIL(); });
  EXPECT_EQ(sim.final_time(), 0u);
}

TEST(Simulator, FiberSeesItsOwnVirtualClock) {
  Simulator sim;
  sim.run(1, [&](int) {
    EXPECT_EQ(platform::now(), 0u);
    platform::advance(100);
    EXPECT_EQ(platform::now(), 100u);
    platform::advance(50);
    EXPECT_EQ(platform::now(), 150u);
  });
  EXPECT_EQ(sim.final_time(), 150u);
}

TEST(Simulator, FinalTimeIsMaxOverFibers) {
  Simulator sim;
  sim.run(3, [&](int tid) { platform::advance(static_cast<std::uint64_t>(tid) * 100); });
  EXPECT_EQ(sim.final_time(), 200u);
}

TEST(Simulator, InterleavesInVirtualTimeOrder) {
  // Each fiber stamps a global sequence at known virtual times; the
  // observed order must be sorted by (time, id).
  Simulator sim;
  struct Stamp {
    std::uint64_t time;
    int tid;
  };
  std::vector<Stamp> stamps;
  sim.run(4, [&](int tid) {
    for (int i = 0; i < 10; ++i) {
      platform::advance(static_cast<std::uint64_t>(7 + tid));
      stamps.push_back({platform::now(), tid});
    }
  });
  // A fiber only keeps running while no other ready fiber has a strictly
  // smaller clock, so observed stamps are non-decreasing in virtual time
  // (ties may appear in either id order).
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LE(stamps[i - 1].time, stamps[i].time) << "at index " << i;
  }
}

TEST(Simulator, SameSeedSameSchedule) {
  auto trace = [] {
    Simulator sim;
    std::vector<int> order;
    sim.run(6, [&](int tid) {
      for (int i = 0; i < 20; ++i) {
        platform::advance(static_cast<std::uint64_t>(3 + (tid * 7 + i) % 11));
        order.push_back(tid);
      }
    });
    return order;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Simulator, WaitUntilJumpsTheClock) {
  Simulator sim;
  sim.run(1, [&](int) {
    platform::wait_until(123456);
    EXPECT_EQ(platform::now(), 123456u);
    platform::wait_until(100);  // already passed: no-op
    EXPECT_EQ(platform::now(), 123456u);
  });
}

TEST(Simulator, SpinWaitMakesProgressAcrossFibers) {
  // Fiber 1 spins until fiber 0 sets a flag: classic producer/consumer.
  Simulator sim;
  std::atomic<bool> flag{false};
  std::uint64_t consumer_done = 0;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      platform::advance(10000);
      flag.store(true, std::memory_order_release);
    } else {
      while (!flag.load(std::memory_order_acquire)) platform::pause();
      consumer_done = platform::now();
    }
  });
  EXPECT_GE(consumer_done, 10000u);
}

TEST(Simulator, VirtualTimeLimitConvertsLivelockIntoError) {
  SimConfig cfg;
  cfg.max_virtual_time = 100000;
  Simulator sim(cfg);
  std::atomic<bool> never{false};
  EXPECT_THROW(sim.run(1,
                       [&](int) {
                         while (!never.load()) platform::pause();
                       }),
               SimTimeLimitError);
}

TEST(Simulator, FiberExceptionsPropagateToRun) {
  Simulator sim;
  EXPECT_THROW(sim.run(2,
                       [&](int tid) {
                         platform::advance(10);
                         if (tid == 1) throw std::runtime_error("boom");
                       }),
               std::runtime_error);
}

TEST(Simulator, EarliestErrorWins) {
  Simulator sim;
  try {
    sim.run(2, [&](int tid) {
      platform::advance(tid == 0 ? 50u : 10u);
      throw std::runtime_error(tid == 0 ? "late" : "early");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
}

TEST(Simulator, ManyFibers) {
  Simulator sim;
  std::uint64_t total = 0;
  sim.run(128, [&](int) {
    platform::advance(100);
    ++total;
  });
  EXPECT_EQ(total, 128u);
}

TEST(Simulator, ReusableForMultipleRuns) {
  Simulator sim;
  for (int round = 0; round < 3; ++round) {
    int count = 0;
    sim.run(4, [&](int) {
      platform::advance(5);
      ++count;
    });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(sim.final_time(), 5u);
  }
}

TEST(Simulator, DeepCallStacksSurviveSwitching) {
  Simulator sim;
  // Recursion depth * frame size stays within the fiber stack; switching
  // mid-recursion must preserve the stack contents.
  std::function<std::uint64_t(int, int)> rec = [&](int depth, int salt) -> std::uint64_t {
    volatile std::uint64_t local = static_cast<std::uint64_t>(depth) * 31 + salt;
    if (depth == 0) return local;
    platform::advance(1);
    return local + rec(depth - 1, salt ^ depth);
  };
  std::vector<std::uint64_t> results(4);
  sim.run(4, [&](int tid) { results[static_cast<std::size_t>(tid)] = rec(200, tid); });
  // Same computation single-fiber must match.
  for (int tid = 0; tid < 4; ++tid) {
    Simulator solo;
    std::uint64_t expect = 0;
    solo.run(1, [&](int) { expect = rec(200, tid); });
    EXPECT_EQ(results[static_cast<std::size_t>(tid)], expect);
  }
}

TEST(Simulator, ContextClearedAfterRun) {
  Simulator sim;
  sim.run(1, [](int) { platform::advance(1); });
  EXPECT_EQ(platform::context(), nullptr);
  EXPECT_EQ(platform::thread_id(), -1);
  // A run inside a ThreadIdScope hands the scope's id back.
  ThreadIdScope scope(9);
  sim.run(2, [](int) { platform::advance(10); });
  EXPECT_EQ(platform::thread_id(), 9);
}

// platform::thread_id() must name the running fiber after every way control
// enters one: its first activation from the scheduler, a direct fiber-to-
// fiber switch, a controlled-mode activation and a cancellation unwind.
// Each check records the ids that disagreed.

TEST(Simulator, ThreadIdFollowsSchedulerAndDirectSwitches) {
  Simulator sim;
  std::vector<int> wrong;
  int checks = 0;
  const auto check = [&](int tid) {
    ++checks;
    if (platform::thread_id() != tid) wrong.push_back(tid);
  };
  sim.run(6, [&](int tid) {
    check(tid);  // first activation: from the scheduler or a direct switch
    if (tid == 0) return;  // exits at once: the scheduler activates the next
    for (int i = 0; i < 50; ++i) {
      platform::advance(3 + static_cast<std::uint64_t>(tid));
      check(tid);  // resumed by a direct switch
      platform::pause();
      check(tid);
    }
  });
  EXPECT_GT(sim.stats().direct_switches, 100u);
  EXPECT_GT(sim.stats().switches, sim.stats().direct_switches);
  EXPECT_EQ(checks, 6 + 5 * 100);
  EXPECT_TRUE(wrong.empty());
}

/// Rotates through the eligible fibers; cancels the run at decision
/// `cancel_at`.
struct Rotate final : SchedulePolicy {
  explicit Rotate(std::size_t cancel_at) : cancel_at(cancel_at) {}
  int pick(const PickView& view) override {
    if (view.decision >= cancel_at) return kCancelRun;
    return view.ops[view.decision % static_cast<std::size_t>(view.count)].fiber;
  }
  std::size_t cancel_at;
};

TEST(Simulator, ThreadIdFollowsControlledActivations) {
  Rotate policy(~std::size_t{0});
  SimConfig cfg;
  cfg.policy = &policy;
  Simulator sim(cfg);
  std::vector<int> wrong;
  int checks = 0;
  sim.run(3, [&](int tid) {
    for (int i = 0; i < 5; ++i) {
      platform::sched_point(SchedKind::kApi);
      ++checks;
      if (platform::thread_id() != tid) wrong.push_back(tid);
    }
  });
  EXPECT_FALSE(sim.cancelled());
  EXPECT_EQ(checks, 15);
  EXPECT_TRUE(wrong.empty());
}

TEST(Simulator, ThreadIdFollowsCancellationUnwind) {
  Rotate policy(8);
  SimConfig cfg;
  cfg.policy = &policy;
  Simulator sim(cfg);
  std::vector<int> wrong;
  int unwound = 0;
  struct OnUnwind {
    std::function<void()> fn;
    ~OnUnwind() { fn(); }
  };
  sim.run(3, [&](int tid) {
    OnUnwind guard{[&, tid] {
      // Parks during the unwind, so a peer runs before this resumes.
      platform::pause();
      ++unwound;
      if (platform::thread_id() != tid) wrong.push_back(tid);
    }};
    for (;;) platform::sched_point(SchedKind::kApi);
  });
  EXPECT_TRUE(sim.cancelled());
  EXPECT_EQ(unwound, 3);
  EXPECT_TRUE(wrong.empty());
}

TEST(RunRealThreads, AssignsDenseIdsAndJoins) {
  std::vector<int> seen(4, -1);
  run_real_threads(4, [&](int tid) { seen[static_cast<std::size_t>(tid)] = platform::thread_id(); });
  for (int i = 0; i < 4; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(RunRealThreads, PropagatesWorkerExceptions) {
  EXPECT_THROW(run_real_threads(2,
                                [&](int tid) {
                                  if (tid == 1) throw std::logic_error("bad");
                                }),
               std::logic_error);
}

}  // namespace
}  // namespace sprwl::sim
