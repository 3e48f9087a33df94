// Shard protocol tests: the seqlock publication over a single node, the
// torn-write window (node crash between the version claim and the payload
// publish) with recovery by the next lease holder, the undo-stamp
// discipline for crashes mid-undo, and the degraded path when the lease
// service is unreachable.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/platform.h"
#include "dist/lock_service.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace sprwl::dist {
namespace {

ShardConfig two_node_config() {
  ShardConfig cfg;
  cfg.topology = sim::Topology::split_nodes(2, 2);
  cfg.max_threads = 2;
  cfg.lease.term = 30'000;
  return cfg;
}

htm::EngineConfig engine_config(const ShardConfig& cfg) {
  htm::EngineConfig ec;
  ec.max_threads = cfg.max_threads;
  ec.topology = cfg.topology;
  return ec;
}

void set_all(std::uint64_t* vals, std::size_t n, std::uint64_t v) {
  for (std::size_t i = 0; i < n; ++i) vals[i] = v;
}

TEST(Shard, SingleNodeWriteThenValidatedRead) {
  ShardConfig cfg;  // default topology: one node, nothing crosses the fabric
  cfg.max_threads = 2;
  Shard shard(cfg);
  htm::Engine engine(engine_config(cfg));
  htm::EngineScope scope(engine);
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
          set_all(vals, n, vals[0] + 1);
        }));
      }
    } else {
      std::vector<std::uint64_t> buf(cfg.cells, 0);
      std::uint64_t last = 0;
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(shard.read(tid, buf.data()));
        for (std::size_t c = 1; c < cfg.cells; ++c) {
          EXPECT_EQ(buf[c], buf[0]) << "validated read observed a tear";
        }
        EXPECT_GE(buf[0], last) << "validated read went backwards";
        last = buf[0];
        platform::advance(500);
      }
    }
  });
  EXPECT_EQ(shard.raw_cell(0), 10u);
  EXPECT_EQ(shard.raw_version() & 1, 0u);
  EXPECT_EQ(shard.stats().writes.load(), 10u);
}

// Sweep the crash instant across the whole write: whichever store the
// holder died between — claim/undo (stale stamp, cells clean), undo/stamp,
// stamp/publish (cells possibly half-written) — the next node's fresh
// grant must recover a consistent payload: version even, all cells equal,
// value either the pre-write or the post-write image. At least one offset
// must land inside the torn-write window (version left odd) or the sweep
// proves nothing.
TEST(Shard, CrashSweepAcrossTornWriteWindowRecovers) {
  int torn_offsets = 0;
  for (std::uint64_t crash_at = 2'000; crash_at <= 26'000; crash_at += 171) {
    const ShardConfig cfg = two_node_config();
    Shard shard(cfg);
    htm::Engine engine(engine_config(cfg));
    fault::FaultPlan plan;
    plan.topology = cfg.topology;
    fault::NodeCrashSpec crash;
    crash.node = 0;
    crash.at = crash_at;
    plan.crashes.push_back(crash);

    sim::Simulator sim;
    fault::FaultInjector injector(plan, &sim, &engine);
    fault::FaultScope fscope(injector);
    htm::EngineScope escope(engine);

    bool crashed = false;
    bool writer_done = false;
    bool saw_torn_version = false;
    sim.run(2, [&](int tid) {
      if (cfg.topology.node_of(tid) == 0) {
        try {
          // Seed the payload with 7, then keep rewriting to 7 until the
          // crash lands somewhere inside one of the write bodies.
          for (int i = 0; i < 2'000; ++i) {
            shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
              set_all(vals, n, 7);
            });
            writer_done = true;
          }
        } catch (const fault::NodeCrashed&) {
          crashed = true;
          saw_torn_version = (shard.raw_version() & 1) != 0;
        }
        return;
      }
      // The healthy node takes over after the lease dies and writes 9.
      platform::wait_until(crash_at + cfg.lease.term + 5'000);
      EXPECT_TRUE(shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
        set_all(vals, n, 9);
      }));
    });

    ASSERT_TRUE(crashed) << "crash_at=" << crash_at;
    if (saw_torn_version) ++torn_offsets;
    EXPECT_EQ(shard.raw_version() & 1, 0u) << "crash_at=" << crash_at;
    const std::uint64_t v0 = shard.raw_cell(0);
    for (std::size_t c = 1; c < cfg.cells; ++c) {
      EXPECT_EQ(shard.raw_cell(c), v0)
          << "inconsistent payload after recovery, crash_at=" << crash_at;
    }
    EXPECT_EQ(v0, 9u) << "crash_at=" << crash_at;
    // The takeover's fresh grant runs recovery exactly when the crash left
    // the claim without its publish.
    EXPECT_EQ(shard.stats().recoveries.load() > 0, saw_torn_version)
        << "crash_at=" << crash_at;
    (void)writer_done;
  }
  EXPECT_GT(torn_offsets, 0)
      << "no crash instant hit the torn-write window; sweep is too coarse";
}

TEST(Shard, WriteAbandonedWhenLeaseExpiresMidSection) {
  // A writer stalled (preempted) inside its section past its own expiry:
  // every remaining store is fenced, the attempt reports failure, and the
  // retry re-acquires a fresh epoch and succeeds — no stale-epoch store
  // ever lands after the fence.
  const ShardConfig cfg = two_node_config();
  Shard shard(cfg);
  htm::Engine engine(engine_config(cfg));
  fault::FaultPlan plan;
  plan.topology = cfg.topology;
  fault::PreemptSpec s;
  s.point = SchedKind::kWriteBody;
  s.tid = 0;
  s.not_before = 0;
  s.duration = 2 * cfg.lease.term;  // sleeps through its own expiry
  s.count = 1;
  plan.preempts.push_back(s);

  sim::Simulator sim;
  fault::FaultInjector injector(plan, &sim, &engine);
  fault::FaultScope fscope(injector);
  htm::EngineScope escope(engine);
  sim.run(1, [&](int tid) {
    EXPECT_TRUE(shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
      set_all(vals, n, vals[0] + 1);
    }));
  });
  EXPECT_GE(shard.stats().write_abandons.load(), 1u);
  EXPECT_EQ(shard.stats().writes.load(), 1u);
  EXPECT_EQ(shard.raw_version() & 1, 0u);
  EXPECT_EQ(shard.raw_cell(0), 1u);
  EXPECT_GE(shard.stats().recoveries.load(), 1u)
      << "the fenced claim left a tear; the retry's fresh grant repairs it";
}

TEST(Shard, DegradedModeWritesThroughFallbackSgl) {
  const ShardConfig cfg = two_node_config();
  Shard shard(cfg);
  htm::Engine engine(engine_config(cfg));
  htm::EngineScope scope(engine);
  shard.set_service_reachable(false);
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (cfg.topology.node_of(tid) == 0) {
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
          set_all(vals, n, vals[0] + 1);
        }));
      }
    } else {
      std::vector<std::uint64_t> buf(cfg.cells, 0);
      for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(shard.read(tid, buf.data()));
        for (std::size_t c = 1; c < cfg.cells; ++c) {
          EXPECT_EQ(buf[c], buf[0]);
        }
        platform::advance(700);
      }
    }
  });
  EXPECT_EQ(shard.stats().degraded_writes.load(), 8u);
  EXPECT_EQ(shard.stats().writes.load(), 0u) << "leased path must be bypassed";
  EXPECT_EQ(shard.lease().stats().grants.load(), 0u);
  EXPECT_EQ(shard.raw_cell(0), 8u);

  // Service restored: the leased path resumes where degradation left off.
  shard.set_service_reachable(true);
  sim::Simulator sim2;
  sim2.run(1, [&](int tid) {
    EXPECT_TRUE(shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
      set_all(vals, n, vals[0] + 1);
    }));
  });
  EXPECT_EQ(shard.raw_cell(0), 9u);
  EXPECT_EQ(shard.stats().writes.load(), 1u);
}

TEST(Shard, CrossNodeReadPaysTheFabricAndValidates) {
  // A reader on node 1 against a writer on node 0: the copies cross the
  // fabric (EngineStats::node_transfers with owner tracking), and every
  // accepted copy is consistent despite the churn.
  const ShardConfig cfg = two_node_config();
  Shard shard(cfg);
  htm::Engine engine(engine_config(cfg));
  htm::EngineScope scope(engine);
  sim::Simulator sim;
  std::uint64_t accepted = 0;
  sim.run(2, [&](int tid) {
    if (cfg.topology.node_of(tid) == 0) {
      for (int i = 0; i < 15; ++i) {
        shard.write(tid, [](std::uint64_t* vals, std::size_t n) {
          set_all(vals, n, vals[0] + 1);
        });
        platform::advance(300);
      }
    } else {
      std::vector<std::uint64_t> buf(cfg.cells, 0);
      for (int i = 0; i < 15; ++i) {
        if (shard.read(tid, buf.data())) {
          ++accepted;
          for (std::size_t c = 1; c < cfg.cells; ++c) {
            EXPECT_EQ(buf[c], buf[0]);
          }
        }
        platform::advance(400);
      }
    }
  });
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(engine.stats().node_transfers, 0u)
      << "cross-node copies must be priced as fabric transfers";
}

TEST(Shard, LockServiceRoutesAndDegradesPerService) {
  const ShardConfig cfg = two_node_config();
  LockService svc(cfg, 3);
  EXPECT_EQ(&svc.shard(0), &svc.shard(3));  // modulo routing
  svc.set_service_reachable(false);
  htm::Engine engine(engine_config(cfg));
  htm::EngineScope scope(engine);
  sim::Simulator sim;
  sim.run(1, [&](int tid) {
    EXPECT_TRUE(svc.shard(1).write(tid, [](std::uint64_t* vals,
                                           std::size_t n) {
      set_all(vals, n, 3);
    }));
  });
  EXPECT_EQ(svc.shard(1).stats().degraded_writes.load(), 1u);
  EXPECT_EQ(svc.shard(0).stats().degraded_writes.load(), 0u);
}

}  // namespace
}  // namespace sprwl::dist
