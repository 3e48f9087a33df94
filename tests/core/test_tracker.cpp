// Reader trackers (core/tracker.h) and the configurations SpRWLock accepts:
// every combination of tracker, state layout, reader bias and socket count
// either runs a torn-read workload clean and quiesces, or is rejected at
// construction — never silently rewritten into another configuration.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/bravo.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

enum class Bias { kOff, kGlobalTable, kShardedTable };

struct alignas(64) Pair {
  htm::Shared<std::uint64_t> a, b;
};

constexpr int kThreads = 4;

// Cold locks stay cheap: everything sized by max_threads lives in the lazily
// built plane (Bravo.FastPathReadAllocatesNoPlane covers the fast path).
static_assert(sizeof(SpRWLock) <= 384, "the lock shell is at most six lines");

Config matrix_config(Tracking tracking, bool sharded, Bias bias, int sockets) {
  Config c = Config::variant(SchedulingVariant::kFull, kThreads);
  c.reader_htm_first = false;  // drive the tracker, not the HTM reader path
  c.tracking = tracking;
  c.socket_sharded_tracking = sharded;
  c.topology = sim::Topology::split(kThreads, sockets);
  if (bias != Bias::kOff) {
    bravo::ReaderTable::Config tc;
    tc.max_threads = kThreads;
    tc.topology = c.topology;
    tc.shard_by_socket = bias == Bias::kShardedTable;
    c.bravo_bias = true;
    c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  }
  return c;
}

// Two writers bump a pair of cells together; readers on both sockets check
// the pair inside their section.
std::uint64_t run_torn_read_workload(SpRWLock& lock, Pair& p) {
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(kThreads, [&](int tid) {
    for (int op = 0; op < 12; ++op) {
      if (tid % 2 == 1) {
        lock.write(1, [&] {
          const std::uint64_t n = p.a.load() + 1;
          p.a.store(n);
          p.b.store(n);
        });
      } else {
        lock.read(0, [&] {
          const std::uint64_t x = p.a.load();
          platform::advance(300);
          if (x != p.b.load()) ++torn;
        });
      }
      platform::advance(70 * static_cast<std::uint64_t>(tid) + 40);
    }
  });
  return torn;
}

TEST(TrackerMatrix, EveryCombinationRunsCleanOrIsRejected) {
  int ran = 0;
  int rejected = 0;
  for (Tracking tracking :
       {Tracking::kFlags, Tracking::kSnzi, Tracking::kAdaptive}) {
    for (bool sharded : {false, true}) {
      for (Bias bias : {Bias::kOff, Bias::kGlobalTable, Bias::kShardedTable}) {
        for (int sockets : {1, 2}) {
          SCOPED_TRACE("tracking " + std::to_string(static_cast<int>(tracking)) +
                       " sharded " + std::to_string(sharded) + " bias " +
                       std::to_string(static_cast<int>(bias)) + " sockets " +
                       std::to_string(sockets));
          const Config cfg = matrix_config(tracking, sharded, bias, sockets);
          std::unique_ptr<SpRWLock> lock;
          try {
            lock = std::make_unique<SpRWLock>(cfg);
          } catch (const std::invalid_argument&) {
            ++rejected;
            continue;
          }
          // Nothing was rewritten: the lock runs the configuration asked for.
          EXPECT_EQ(lock->config().tracking, tracking);
          EXPECT_EQ(lock->config().socket_sharded_tracking, sharded);
          EXPECT_EQ(lock->bias_is_on(), bias != Bias::kOff);
          EXPECT_EQ(lock->tracking_with_snzi(), tracking == Tracking::kSnzi);

          htm::EngineConfig ec;
          ec.max_threads = kThreads;
          ec.topology = cfg.topology;
          htm::Engine engine(ec);
          htm::EngineScope scope(engine);
          Pair p;
          EXPECT_EQ(run_torn_read_workload(*lock, p), 0u);
          EXPECT_EQ(p.a.raw_load(), 2u * 12u);
          EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
          EXPECT_TRUE(lock->tracking_quiescent());
          if (cfg.bravo_table != nullptr) {
            EXPECT_TRUE(cfg.bravo_table->all_slots_empty_raw());
          }
          ++ran;
        }
      }
    }
  }
  EXPECT_EQ(ran + rejected, 3 * 2 * 3 * 2);
  ::testing::Test::RecordProperty("ran", ran);
  ::testing::Test::RecordProperty("rejected", rejected);
}

// A socket-sharded reader table keeps per-thread registration state, so a
// lock with more threads than the table was sized for is refused up front.
TEST(TrackerMatrix, ShardedTableSmallerThanLockIsRejected) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = 2;
  tc.shard_by_socket = true;
  Config c = Config::variant(SchedulingVariant::kFull, 4);
  c.bravo_bias = true;
  c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  EXPECT_THROW(SpRWLock{c}, std::invalid_argument);
  tc.max_threads = 4;
  c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  EXPECT_NO_THROW(SpRWLock{c});
}

// The factory Config::tracking names builds the matching tracker, and the
// SNZI-backed ones expose their tree.
TEST(TrackerMatrix, TrackingPicksTheTracker) {
  for (Tracking t : {Tracking::kFlags, Tracking::kSnzi, Tracking::kAdaptive}) {
    Config c = Config::variant(SchedulingVariant::kFull, 8);
    c.tracking = t;
    StateArray state(c);
    const std::unique_ptr<ReaderTracker> tracker = tracker_for(t)(c, state);
    EXPECT_EQ(tracker->uses_snzi(), t == Tracking::kSnzi);
    EXPECT_EQ(tracker->snzi_leaves() > 0, t != Tracking::kFlags);
    EXPECT_TRUE(tracker->quiescent_raw());
  }
  EXPECT_THROW(tracker_for(static_cast<Tracking>(7)), std::invalid_argument);
}

}  // namespace
}  // namespace sprwl::core
