// Cancellation-unwind chaos: timed acquisitions racing preemptions and
// abort storms, over a seed matrix, with the quiesce-state invariants
// checked after every run.
//
// The property under test is the tentpole's unwind guarantee: a timed
// read or write that gives up mid-acquisition must undo everything it
// published — reader flag, socket count, SNZI arrival, bravo ReaderTable
// slot — no matter where in the protocol the deadline expired or which
// fault fired in the window. A single leaked bit shows up here as a
// phantom reader (tracking_quiescent() false), a ghost table occupant
// (all_slots_empty_raw() false), or a wedged writer (watchdog trip).
//
// Seed replay: SPRWL_SEED=<n> reproduces any failing schedule
// bit-identically (tests/support/seed_replay.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bravo.h"
#include "core/sprwl.h"
#include "common/platform.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "sim/simulator.h"

#include "../support/seed_replay.h"

namespace sprwl::fault {
namespace {

constexpr int kThreads = 6;
constexpr int kWriters = 2;
constexpr int kOps = 60;
constexpr std::size_t kCells = 4;
constexpr std::uint64_t kHorizon = 300'000;

// Budgets alternate per op: the tiny one expires while the acquisition is
// still mid-protocol (exercising the unwind), the comfortable one lets the
// section run (exercising the normal exit after a timed entry).
constexpr std::uint64_t kTinyBudget = 50;
constexpr std::uint64_t kFatBudget = 2'000'000;

struct TimedChaosResult {
  bool completed = false;
  std::uint64_t commits = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t write_timeouts = 0;
  std::uint64_t torn = 0;
  std::uint64_t final_value = 0;
};

TimedChaosResult run_timed_chaos(core::SpRWLock& lock, htm::Engine& engine,
                                 std::uint64_t seed, const FaultPlan& plan) {
  struct alignas(64) Cell {
    htm::Shared<std::uint64_t> v;
  };
  std::vector<Cell> cells(kCells);
  std::vector<std::uint64_t> commits(kThreads, 0);
  std::vector<std::uint64_t> rto(kThreads, 0), wto(kThreads, 0);
  std::vector<std::uint64_t> torn(kThreads, 0);

  sim::SimConfig scfg;
  scfg.max_virtual_time = 4ULL * 1000 * 1000 * 1000;
  sim::Simulator sim(scfg);
  FaultInjector injector(plan, &sim, &engine);
  FaultScope fscope(injector);
  htm::EngineScope escope(engine);

  TimedChaosResult res;
  try {
    sim.run(kThreads, [&](int tid) {
      Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(tid));
      const auto me = static_cast<std::size_t>(tid);
      const bool is_writer = tid >= kThreads - kWriters;
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t budget = (i % 2 == 0) ? kTinyBudget : kFatBudget;
        if (is_writer) {
          const auto r = lock.try_write_for(1, budget, [&] {
            checkpoint(InjectPoint::kWriteBody);
            const std::uint64_t v = cells[0].v.load() + 1;
            platform::advance(200);
            for (std::size_t c = 0; c < kCells; ++c) cells[c].v.store(v);
          });
          if (r == locks::AcquireResult::kAcquired) ++commits[me];
          else ++wto[me];
        } else {
          std::uint64_t torn_here = 0;
          const auto r = lock.try_read_for(0, budget, [&] {
            torn_here = 0;
            checkpoint(InjectPoint::kReadBody);
            const std::uint64_t a = cells[0].v.load();
            platform::advance(400);
            for (std::size_t c = 1; c < kCells; ++c) {
              if (cells[c].v.load() != a) ++torn_here;
            }
          });
          if (r == locks::AcquireResult::kAcquired) torn[me] += torn_here;
          else ++rto[me];
        }
        platform::advance(1 + rng.next_below(300));
      }
    });
    res.completed = true;
  } catch (const sim::SimTimeLimitError&) {
    res.completed = false;
  }

  for (int t = 0; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    res.commits += commits[i];
    res.read_timeouts += rto[i];
    res.write_timeouts += wto[i];
    res.torn += torn[i];
  }
  res.final_value = cells[0].v.raw_load();
  for (std::size_t c = 1; c < kCells; ++c) {
    if (cells[c].v.raw_load() != res.final_value) ++res.torn;
  }
  return res;
}

FaultPlan storm_plan(std::uint64_t seed) {
  FaultPlan plan = FaultPlan::chaos(seed, kThreads, kHorizon);
  plan.storm.from = 0;
  plan.storm.until = 100'000'000;  // peak lands mid-run
  plan.storm.peak_rate = 0.7;
  return plan;
}

// Bravo bias on, uninstrumented readers: every timed read drives the
// ReaderTable occupy/expire/release protocol under fire. The table must be
// empty at quiesce — a leaked slot is exactly the bug the
// SpRWL-timeout-broken checker variant plants.
TEST(TimeoutChaos, BravoUnwindLeavesNoPhantomStateAcrossSeeds) {
  const std::uint64_t base = env_seed(21);
  std::uint64_t total_timeouts = 0;
  for (std::uint64_t seed = base; seed < base + 12; ++seed) {
    SCOPED_TRACE(testutil::seed_replay(seed));
    bravo::ReaderTable::Config tc;
    tc.max_threads = kThreads;
    auto table = std::make_shared<bravo::ReaderTable>(tc);
    core::Config cfg;
    cfg.max_threads = kThreads;
    cfg.reader_htm_first = false;
    cfg.bravo_bias = true;
    cfg.bravo_table = table;
    htm::Engine engine;
    core::SpRWLock lock{cfg};
    const TimedChaosResult r = run_timed_chaos(lock, engine, seed,
                                               storm_plan(seed));
    EXPECT_TRUE(r.completed) << "progress watchdog tripped";
    EXPECT_EQ(r.torn, 0u);
    EXPECT_EQ(r.final_value, r.commits) << "lost or phantom update";
    EXPECT_TRUE(lock.tracking_quiescent()) << "phantom reader left behind";
    EXPECT_TRUE(table->all_slots_empty_raw()) << "leaked ReaderTable slot";
    total_timeouts += r.read_timeouts + r.write_timeouts;
  }
  // The matrix must actually exercise the unwind, not just the happy path.
  EXPECT_GT(total_timeouts, 0u);
}

// SNZI tracking: a timed reader that arrived at the SNZI and then expired
// must depart on the unwind path; a lost depart keeps the root nonzero
// forever (tracking_quiescent() false) and wedges every later writer.
TEST(TimeoutChaos, SnziUnwindPairsEveryArriveWithADepart) {
  const std::uint64_t base = env_seed(22);
  std::uint64_t total_timeouts = 0;
  for (std::uint64_t seed = base; seed < base + 12; ++seed) {
    SCOPED_TRACE(testutil::seed_replay(seed));
    core::Config cfg;
    cfg.max_threads = kThreads;
    cfg.reader_htm_first = false;
    cfg.tracking = core::Tracking::kSnzi;
    htm::Engine engine;
    core::SpRWLock lock{cfg};
    const TimedChaosResult r = run_timed_chaos(lock, engine, seed,
                                               storm_plan(seed));
    EXPECT_TRUE(r.completed) << "progress watchdog tripped";
    EXPECT_EQ(r.torn, 0u);
    EXPECT_EQ(r.final_value, r.commits) << "lost or phantom update";
    EXPECT_TRUE(lock.tracking_quiescent()) << "lost SNZI depart";
    total_timeouts += r.read_timeouts + r.write_timeouts;
  }
  EXPECT_GT(total_timeouts, 0u);
}

// Same-seed determinism for the timed harness: replayability is what makes
// the seed matrix a usable regression net.
TEST(TimeoutChaos, SameSeedSameOutcome) {
  const std::uint64_t seed = 7;
  core::Config cfg;
  cfg.max_threads = kThreads;
  cfg.reader_htm_first = false;
  cfg.tracking = core::Tracking::kSnzi;
  htm::Engine e1, e2;
  core::SpRWLock l1{cfg}, l2{cfg};
  const TimedChaosResult a = run_timed_chaos(l1, e1, seed, storm_plan(seed));
  const TimedChaosResult b = run_timed_chaos(l2, e2, seed, storm_plan(seed));
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.read_timeouts, b.read_timeouts);
  EXPECT_EQ(a.write_timeouts, b.write_timeouts);
  EXPECT_EQ(a.final_value, b.final_value);
}

}  // namespace
}  // namespace sprwl::fault
