// The scheduler's ready set against std::priority_queue: the set on its
// own under random push / pop traffic, and whole simulator runs against
// schedule digests taken when a std::priority_queue scheduler still ran
// beside it and produced the same schedules. Keys are unique, so any
// correct ordered set yields the same schedule; these tests pin that
// ReadySet is one, including ties in time, far-future wakeups and 1..1024
// fibers.
#include "sim/ready_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

#include "../support/schedule_digest.h"

namespace sprwl::sim {
namespace {

using MinQueue = std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                                     std::greater<std::uint64_t>>;

// Draws a time: mostly near `now` with many exact ties, sometimes far ahead.
std::uint64_t draw_time(Rng& rng, std::uint64_t now) {
  const std::uint64_t r = rng.next_below(16);
  if (r == 0) return now + (std::uint64_t{1} << 40) + rng.next_below(1000);
  if (r < 6) return now;  // tie with every other key at this time
  return now + rng.next_below(40);
}

TEST(ReadySet, MatchesPriorityQueueUnderRandomTraffic) {
  for (const int n : {1, 2, 3, 7, 28, 64, 333, 1024}) {
    Rng rng(static_cast<std::uint64_t>(n) * 7919 + 1);
    ReadySet rs;
    rs.reset(static_cast<std::size_t>(n));
    MinQueue oracle;
    std::vector<bool> queued(static_cast<std::size_t>(n), false);
    std::uint64_t now = 0;
    const auto push = [&](int id) {
      const std::uint64_t k = ReadySet::key(draw_time(rng, now), id);
      rs.push(k);
      oracle.push(k);
      queued[static_cast<std::size_t>(id)] = true;
    };
    for (int id = 0; id < n; ++id) push(id);
    for (int step = 0; step < 20000; ++step) {
      ASSERT_EQ(rs.size(), oracle.size());
      if (!oracle.empty()) {
        ASSERT_EQ(rs.top(), oracle.top()) << "n=" << n;
      }
      const std::uint64_t op = rng.next_below(8);
      if (op < 5 && !oracle.empty()) {
        // The direct-switch pattern: take the minimum, then re-insert that
        // id with a later key.
        const std::uint64_t front = oracle.top();
        oracle.pop();
        now = ReadySet::time_of(front);
        const int id = ReadySet::id_of(front);
        const std::uint64_t k = ReadySet::key(draw_time(rng, now + 1), id);
        ASSERT_EQ(rs.pop(), front);
        rs.push(k);
        oracle.push(k);
      } else if (op < 7 && !oracle.empty()) {
        const std::uint64_t front = oracle.top();
        oracle.pop();
        ASSERT_EQ(rs.pop(), front);
        now = ReadySet::time_of(front);
        queued[static_cast<std::size_t>(ReadySet::id_of(front))] = false;
      } else {
        for (int id = 0; id < n; ++id) {
          if (!queued[static_cast<std::size_t>(id)]) {
            push(id);
            break;
          }
        }
      }
    }
    while (!oracle.empty()) {
      ASSERT_EQ(rs.pop(), oracle.top());
      oracle.pop();
    }
    EXPECT_TRUE(rs.empty());
  }
}

struct SimRun {
  std::vector<int> order;  // fiber activations in execution order
  std::uint64_t final_time = 0;
  SimStats stats;
};

// Random per-fiber costs with many exact ties (small cost alphabet) and
// occasional far-future timed waits.
SimRun run_sim(int nfibers, int steps, std::uint64_t seed) {
  SimConfig cfg;
  cfg.stack_bytes = 32 * 1024;
  Simulator sim(cfg);
  SimRun r;
  sim.run(nfibers, [&](int tid) {
    Rng rng(seed * 1000003 + static_cast<std::uint64_t>(tid));
    for (int i = 0; i < steps; ++i) {
      const std::uint64_t roll = rng.next_below(32);
      if (roll == 0) {
        platform::wait_until(platform::now() + 1000000 + rng.next_below(7));
      } else {
        platform::advance(4 * (1 + roll % 3));
      }
      r.order.push_back(tid);
    }
  });
  r.final_time = sim.final_time();
  r.stats = sim.stats();
  return r;
}

TEST(ReadySet, SimulatorScheduleMatchesPriorityQueueScheduler) {
  struct Pin {
    int n;
    std::uint64_t digest;    // schedule_digest of the priority-queue run
    std::uint64_t switches;  // its activation count
  };
  constexpr Pin kPins[] = {
      {1, 0x37c04acca01bd8d6ULL, 1},        {2, 0x1a87544b59969841ULL, 28},
      {5, 0x21897a4b1f2f9773ULL, 430},      {28, 0xd50a04cc31b03c8eULL, 3829},
      {200, 0x2229812c26b3ce1fULL, 2587},   {1024, 0x04dcc83ce482957fULL, 13299},
  };
  for (const Pin& pin : kPins) {
    const int steps = pin.n >= 200 ? 12 : 150;
    const SimRun a = run_sim(pin.n, steps, 11);
    EXPECT_EQ(testutil::schedule_digest(a.order, a.final_time), pin.digest)
        << "n=" << pin.n;
    EXPECT_EQ(a.stats.switches, pin.switches) << "n=" << pin.n;
    EXPECT_EQ(a.stats.heap_pushes, a.stats.heap_pops) << "n=" << pin.n;
  }
}

}  // namespace
}  // namespace sprwl::sim
