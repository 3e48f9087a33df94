// Socket-sharded BRAVO reader tables (bravo::Config::shard_by_socket,
// DESIGN.md §16): shard geometry derived from the topology, per-socket slot
// confinement (a reader's publish never leaves its socket's lines), the
// summary-gated revocation drain's exact O(sockets) clean cost, the
// migration-safe release (summary of the *registering* shard), per-shard
// revocation EMAs driving socket-local re-bias throttling, and a real-thread
// stress leg for the TSan CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/costs.h"
#include "common/platform.h"
#include "core/bravo.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

std::shared_ptr<bravo::ReaderTable> make_sharded_table(
    int threads, int sockets, std::size_t per_shard_slots = 0) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = threads;
  tc.slots = per_shard_slots;
  tc.shard_by_socket = true;
  // Clear on every outermost release: these tests assert exact summary
  // transitions; the amortized default is covered by SummaryClearsAmortized.
  tc.summary_clear_period = 1;
  tc.topology = sim::Topology::split(threads, sockets);
  return std::make_shared<bravo::ReaderTable>(tc);
}

Config sharded_bravo_config(int threads,
                            std::shared_ptr<bravo::ReaderTable> table) {
  Config cfg = Config::variant(SchedulingVariant::kFull, threads);
  cfg.reader_htm_first = false;
  cfg.bravo_bias = true;
  cfg.bravo_table = std::move(table);
  return cfg;
}

// Shard geometry follows the topology: one shard per socket, sized from
// that socket's core count (kSlotsPerThread per core), each starting on
// its own cache line; slot_of confines every (lock, tid) hash to the
// acquirer's socket's shard.
TEST(BravoNuma, ShardGeometryFromTopology) {
  static_assert(bravo::ReaderTable::kSlotsPerThread == 4);
  bravo::ReaderTable::Config tc;
  tc.max_threads = 16;
  tc.shard_by_socket = true;
  tc.topology = sim::Topology::split(16, 4);  // 4 sockets x 4 cores
  bravo::ReaderTable t(tc);
  EXPECT_TRUE(t.sharded());
  EXPECT_EQ(t.shard_count(), 4);
  EXPECT_EQ(t.shard_slots(), 16u);  // 4 cores x 4 slots each
  EXPECT_EQ(t.slot_count(), 64u);
  for (int tid = 0; tid < 16; ++tid) {
    const int shard = t.shard_of_tid(tid);
    EXPECT_EQ(shard, tc.topology.socket_of(tid));
    for (std::uint32_t lock = 0; lock < 8; ++lock) {
      const std::size_t slot = t.slot_of(lock, tid);
      EXPECT_EQ(t.shard_of_slot(slot), shard)
          << "tid " << tid << " lock " << lock << " escaped its shard";
    }
  }
  EXPECT_GT(t.footprint_bytes(), t.slot_count() * 8)
      << "summary lines must be accounted";
}

// A topology that cannot size a shard is rejected loudly instead of
// handing out a zero-slot shard whose readers could never register.
TEST(BravoNuma, EmptyShardRejected) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = 8;
  tc.shard_by_socket = true;
  tc.topology.sockets = 2;  // cores_per_socket left 0: shard would be empty
  EXPECT_THROW(bravo::ReaderTable{tc}, std::invalid_argument);
  tc.slots = 4;  // explicit per-shard override sidesteps the auto-sizing
  EXPECT_NO_THROW(bravo::ReaderTable{tc});
}

// Regression: one core per socket is a legal shape (the scale-out sweeps
// use it), and its shards — a single thread's slots each — must round up
// to a full line and still confine each tid.
TEST(BravoNuma, OneCorePerSocketShardsStayValid) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = 4;
  tc.slots = 2;  // per shard
  tc.shard_by_socket = true;
  tc.topology = sim::Topology::split(4, 4);  // 4 sockets x 1 core
  bravo::ReaderTable t(tc);
  EXPECT_EQ(t.shard_count(), 4);
  EXPECT_EQ(t.shard_slots(), 2u);
  for (int tid = 0; tid < 4; ++tid) {
    EXPECT_EQ(t.shard_of_slot(t.slot_of(0, tid)), tid);
  }
}

// The tentpole's cost claim, exact by construction: a revocation drain
// over a CLEAN sharded table reads exactly one line per socket (the
// shard's occupancy summary), while the global table must OR-read every
// slot line. Same spirit as Bravo.FastPathExactCost — any accidental
// extra shared access in the drain fails this.
TEST(BravoNuma, CleanDrainReadsOneLinePerSocket) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  bravo::ReaderTable::Config tc;
  tc.max_threads = 16;
  tc.shard_by_socket = true;
  tc.topology = sim::Topology::split(16, 4);
  bravo::ReaderTable sharded(tc);
  bravo::ReaderTable::Config gc;
  gc.max_threads = 16;
  bravo::ReaderTable global(gc);
  std::uint64_t sharded_cost = 0, global_cost = 0;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    std::uint64_t t0 = platform::now();
    EXPECT_TRUE(sharded.wait_for_readers_of(0));
    sharded_cost = platform::now() - t0;
    t0 = platform::now();
    EXPECT_TRUE(global.wait_for_readers_of(0));
    global_cost = platform::now() - t0;
  });
  EXPECT_EQ(sharded_cost, 4 * g_costs.load);
  EXPECT_EQ(global_cost,
            (global.slot_count() + bravo::ReaderTable::kSlotsPerLine - 1) /
                bravo::ReaderTable::kSlotsPerLine * g_costs.load);
  EXPECT_LT(sharded_cost, global_cost);
}

// A clear period below 1 has no meaning; the table refuses it instead of
// rounding it up to 1.
TEST(BravoNuma, SummaryClearPeriodBelowOneRejected) {
  bravo::ReaderTable::Config tc;
  tc.max_threads = 4;
  tc.shard_by_socket = true;
  tc.topology = sim::Topology::split(4, 2);
  for (int period : {0, -1}) {
    tc.summary_clear_period = period;
    EXPECT_THROW(bravo::ReaderTable{tc}, std::invalid_argument)
        << "period " << period;
  }
  tc.summary_clear_period = 1;
  EXPECT_NO_THROW(bravo::ReaderTable{tc});
}

// The sticky amortization (summary_clear_period, the product default):
// only the FIRST registration after a clear stores the summary word —
// later registrations are mirror-gated and touch no summary line at all
// (exact by cycle count) — and the word clears on every period-th
// outermost release, over-reporting in between.
TEST(BravoNuma, SummaryClearsAmortized) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  bravo::ReaderTable::Config tc;
  tc.max_threads = 2;
  tc.shard_by_socket = true;
  tc.summary_clear_period = 2;
  tc.topology = sim::Topology::split(2, 2);
  bravo::ReaderTable table(tc);
  const std::size_t slot = table.slot_of(0, 0);
  std::uint64_t first_occupy = 0, sticky_occupy = 0;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    std::uint64_t t0 = platform::now();
    ASSERT_TRUE(table.occupy(slot, 0, 0));  // publishes the summary word
    first_occupy = platform::now() - t0;
    table.release(slot, 0);  // release #1: word stays raised (sticky)
    EXPECT_EQ(table.summary_raw(0), 1u);
    t0 = platform::now();
    ASSERT_TRUE(table.occupy(slot, 0, 0));  // mirror-gated: slot CAS only
    sticky_occupy = platform::now() - t0;
    table.release(slot, 0);  // release #2 = period: clears and re-arms
    EXPECT_EQ(table.summary_raw(0), 0u);
    t0 = platform::now();
    ASSERT_TRUE(table.occupy(slot, 0, 0));  // re-armed: publishes again
    EXPECT_EQ(platform::now() - t0, first_occupy);
    EXPECT_EQ(table.summary_raw(0), 1u);
    table.release(slot, 0);  // release #1 of the next period: sticky again
    EXPECT_EQ(table.summary_raw(0), 1u);
  });
  EXPECT_EQ(first_occupy - sticky_occupy,
            g_costs.store + g_costs.line_publish)
      << "steady-state occupy must touch no summary line";
  EXPECT_TRUE(table.all_slots_empty_raw());
}

// Cross-socket slot collisions are impossible by construction: even a
// 1-slot-per-shard table gives same-tid-hash readers on different sockets
// different slots, so a remote reader can never steal a local reader's
// fast path.
TEST(BravoNuma, CrossSocketOccupancyNeverCollides) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  auto table = make_sharded_table(2, 2, /*per_shard_slots=*/1);
  const std::size_t s0 = table->slot_of(0, 0);
  const std::size_t s1 = table->slot_of(0, 1);
  ASSERT_NE(s0, s1);
  ASSERT_NE(table->shard_of_slot(s0), table->shard_of_slot(s1));
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    EXPECT_TRUE(table->occupy(tid == 0 ? s0 : s1, 0, tid))
        << "1-slot shards must still admit one reader per socket";
  });
  EXPECT_EQ(table->summary_raw(0), 1u);
  EXPECT_EQ(table->summary_raw(1), 1u);
  sim::Simulator sim2;
  sim2.run(2, [&](int tid) { table->release(tid == 0 ? s0 : s1, tid); });
  EXPECT_TRUE(table->all_slots_empty_raw());
}

// Migration safety: a reader that occupied on socket 0 and releases while
// running on socket 1 must clear its summary word in the shard it
// REGISTERED in (release derives the shard from the slot index, never
// from the where the release executes) — otherwise shard 0's summary
// leaks high forever and later drains scan it needlessly.
TEST(BravoNuma, MigratedReaderReleasesFromRegisteringShard) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  auto table = make_sharded_table(2, 2);  // split(2,2): tid 0 -> socket 0
  const std::size_t slot = table->slot_of(0, 0);
  ASSERT_EQ(table->shard_of_slot(slot), 0);
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      ASSERT_TRUE(table->occupy(slot, 0, 0));
    } else {
      // The release below executes on the socket-1 fiber: it models
      // reader 0 having migrated there between occupy and release (the
      // thread id is identity and stays 0; only where it runs changed).
      platform::advance(10'000);
      EXPECT_EQ(table->summary_raw(0), 1u);
      EXPECT_EQ(table->summary_raw(1), 0u);
      table->release(slot, 0);
    }
  });
  EXPECT_EQ(table->summary_raw(0), 0u) << "registering shard not cleared";
  EXPECT_EQ(table->summary_raw(1), 0u) << "releasing socket's shard touched";
  EXPECT_TRUE(table->all_slots_empty_raw());
}

// End-to-end over the lock: a writer's revocation drains a fast-path
// reader parked on the REMOTE socket — the summary skip must never let
// the writer pass a shard whose reader is mid-section.
TEST(BravoNuma, WriterDrainsRemoteSocketReader) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  auto table = make_sharded_table(4, 2);  // tids {0,1} socket 0, {2,3} socket 1
  SpRWLock lock{sharded_bravo_config(4, table)};
  Cell a, b;
  std::uint64_t saw_a = 0, saw_b = 0;
  sim::Simulator sim;
  sim.run(4, [&](int tid) {
    if (tid == 3) {  // socket-1 reader, remote from the writer's socket 0
      lock.read(0, [&] {
        saw_a = a.v.load();
        platform::advance(50'000);
        saw_b = b.v.load();
      });
    } else if (tid == 0) {
      platform::advance(10'000);  // arrive mid-read
      lock.write(1, [&] {
        a.v.store(1);
        b.v.store(1);
      });
    }
  });
  EXPECT_EQ(saw_a, saw_b) << "writer committed over a remote fast reader";
  EXPECT_EQ(a.v.raw_load(), 1u);
  EXPECT_EQ(lock.revocation_count(), 1u);
  EXPECT_TRUE(table->all_slots_empty_raw());
}

// Per-shard re-bias throttling: one saturated socket must not suppress
// bias process-wide. Phase 1 makes shard 1's drain expensive (a parked
// socket-1 reader) while shard 0 drains clean; phase 2 runs a reader
// streak from one socket. The socket-0 reader re-arms the bias (its
// shard's EMA is the one-line clean probe); the identical streak from
// socket 1 stays suppressed by its shard's large EMA.
TEST(BravoNuma, RebiasCooldownIsPerShard) {
  const auto run_one = [](int streak_tid) {
    htm::Engine engine{htm::EngineConfig{}};
    htm::EngineScope scope(engine);
    auto table = make_sharded_table(4, 2);
    SpRWLock lock{sharded_bravo_config(4, table)};
    Cell x;
    sim::Simulator sim;
    sim.run(4, [&](int tid) {
      if (tid == 3) {  // socket-1 reader parks: shard 1's drain runs long
        lock.read(0, [&] { platform::advance(50'000); });
      } else if (tid == 0) {
        platform::advance(10'000);
        lock.write(1, [&] { x.v.store(1); });  // revokes: EMAs sampled
      }
      if (tid == streak_tid) {
        platform::advance(80'000);  // well past the clean shard's cooldown
        // A streak past kRebiasReads: only the cooldown can hold it back.
        for (int i = 0; i < 20; ++i) lock.read(0, [&] { (void)x.v.load(); });
      }
    });
    struct Out {
      bool bias_on;
      std::uint64_t rebias, ema0, ema1;
    };
    return Out{lock.bias_is_on(), lock.rebias_count(),
               lock.shard_revoke_ema(0), lock.shard_revoke_ema(1)};
  };
  const auto local = run_one(1);   // tid 1: socket 0, the clean shard
  const auto remote = run_one(2);  // tid 2: socket 1, the saturated shard
  ASSERT_GT(local.ema1, 10'000u) << "shard 1's drain EMA missed the park";
  ASSERT_LT(local.ema0, 100u) << "clean shard's EMA should be ~one line read";
  EXPECT_TRUE(local.bias_on) << "clean socket's reader must re-arm the bias";
  EXPECT_GE(local.rebias, 1u);
  EXPECT_FALSE(remote.bias_on)
      << "saturated socket's reader must stay throttled by its shard's EMA";
  EXPECT_EQ(remote.rebias, 0u);
}

// Concurrency stress on REAL threads (the TSan CI leg: -R
// 'BravoNumaRealThread'): the sharded fast path, summary-gated drains and
// per-shard re-bias under actual preemption across two simulated sockets.
// As in BravoRealThread.StressNoTornReads, each writer waits for a re-bias
// before every write and readers read until both writers are done.
TEST(BravoNumaRealThread, ShardedStressNoTornReads) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  auto table = make_sharded_table(8, 2);
  SpRWLock lock{sharded_bravo_config(8, table)};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::atomic<std::uint64_t> torn{0};
  std::atomic<int> writers_left{2};
  sim::run_real_threads(8, [&](int tid) {
    if (tid % 4 == 0) {
      for (int i = 0; i < 200; ++i) {
        while (!lock.bias_is_on()) std::this_thread::yield();
        lock.write(1, [&] {
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          p.b.store(v);
        });
      }
      writers_left.fetch_sub(1);
    } else {
      while (writers_left.load() > 0) {
        lock.read(0, [&] {
          if (p.a.load() != p.b.load()) torn.fetch_add(1);
        });
      }
    }
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(p.a.raw_load(), 400u);  // 2 writers x 200 increments
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
  EXPECT_TRUE(table->all_slots_empty_raw());
  // Each of one writer's writes after its first waited for a re-bias that
  // came after its previous write revoked the bias.
  EXPECT_GE(lock.rebias_count(), 199u);
}

}  // namespace
}  // namespace sprwl::core
