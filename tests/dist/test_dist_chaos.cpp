// Distributed chaos + the torn-read oracle: seeded node-crash/partition
// schedules over a multi-node shard (fault::run_dist_chaos), and the
// oracle that manufactures split cross-node copies and demands the
// version-validation loop rejects every one of them — including its own
// self-check against the deliberately broken validation.
#include <gtest/gtest.h>

#include <cstdint>

#include "dist/lock_service.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "sim/topology.h"

#include "../support/seed_replay.h"

namespace sprwl::fault {
namespace {

// Virtual-time window for planned node faults, matched to the default
// 8x120-op distributed scenario (lease churn makes ops slower than the
// single-node chaos workload's).
constexpr std::uint64_t kHorizon = 700'000;

dist::ShardConfig shard_config(const DistChaosConfig& cfg) {
  dist::ShardConfig sc;
  sc.topology = cfg.topology;
  sc.max_threads = cfg.threads;
  sc.lease.term = 40'000;
  return sc;
}

htm::EngineConfig engine_config(const DistChaosConfig& cfg) {
  htm::EngineConfig ec;
  ec.max_threads = cfg.threads;
  ec.topology = cfg.topology;
  return ec;
}

TEST(DistChaos, SurvivesSixteenSeededNodeFaultSchedules) {
  const std::uint64_t base = env_seed(1);
  std::uint64_t crashes_seen = 0, recoveries_seen = 0, stalls_seen = 0;
  for (std::uint64_t seed = base; seed < base + 16; ++seed) {
    SCOPED_TRACE(testutil::seed_replay(seed));
    DistChaosConfig cfg;
    cfg.seed = seed;
    const FaultPlan plan = FaultPlan::chaos_nodes(seed, kHorizon, cfg.topology);
    htm::Engine engine(engine_config(cfg));
    dist::Shard shard(shard_config(cfg));
    const DistChaosResult r = run_dist_chaos(shard, engine, cfg, plan);
    EXPECT_TRUE(r.completed) << "progress watchdog tripped";
    EXPECT_EQ(r.torn_reads, 0u);
    EXPECT_EQ(r.stale_reads, 0u);
    EXPECT_TRUE(r.invariants_ok())
        << "writes=" << r.writes << " final=" << r.final_value
        << " crashed=" << r.crashed_fibers;
    crashes_seen += r.faults.crash_kills;
    recoveries_seen += r.recoveries;
    stalls_seen += r.faults.partition_stalls;
  }
  // The suite is vacuous unless the planned faults actually bit somewhere
  // across the seed batch.
  EXPECT_GT(crashes_seen, 0u) << "no fiber ever died to a node crash";
  EXPECT_GT(stalls_seen, 0u) << "no lease RPC ever hit a partition";
  (void)recoveries_seen;  // tears are timing-dependent; tracked, not required
}

TEST(DistChaos, SameSeedReplaysBitIdentically) {
  DistChaosConfig cfg;
  cfg.seed = 7;
  const FaultPlan plan = FaultPlan::chaos_nodes(7, kHorizon, cfg.topology);
  htm::Engine e1(engine_config(cfg)), e2(engine_config(cfg));
  dist::Shard s1(shard_config(cfg)), s2(shard_config(cfg));
  const DistChaosResult a = run_dist_chaos(s1, e1, cfg, plan);
  const DistChaosResult b = run_dist_chaos(s2, e2, cfg, plan);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.final_value, b.final_value);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.crashed_fibers, b.crashed_fibers);
  EXPECT_EQ(a.faults.partition_stalls, b.faults.partition_stalls);
}

TEST(DistChaos, CrossNodeTrafficIsPricedOnTheFabric) {
  DistChaosConfig cfg;
  cfg.seed = 3;
  FaultPlan plan;  // no faults: pure cross-node churn
  plan.topology = cfg.topology;
  htm::Engine engine(engine_config(cfg));
  dist::Shard shard(shard_config(cfg));
  const DistChaosResult r = run_dist_chaos(shard, engine, cfg, plan);
  EXPECT_TRUE(r.invariants_ok());
  EXPECT_EQ(r.crashed_fibers, 0u);
  EXPECT_GT(r.node_transfers, 0u);
}

TEST(TornOracle, RejectsEveryManufacturedSplitCopy) {
  const std::uint64_t seed = env_seed(11);
  SCOPED_TRACE(testutil::seed_replay(seed));
  DistChaosConfig shape;
  shape.topology = sim::Topology::split_nodes(2, 2);
  shape.threads = 2;
  dist::ShardConfig sc = shard_config(shape);
  sc.lease.term = 1'000'000'000;  // the writer never loses its lease
  dist::Shard shard(sc);
  htm::Engine engine(engine_config(shape));
  TornOracleConfig cfg;
  cfg.seed = seed;
  const TornOracleResult r = run_torn_oracle(shard, engine, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.splits, 0u) << "the stall never straddled a publish — the "
                             "oracle manufactured nothing";
  EXPECT_GT(r.accepted, 0u) << "no clean copy ever validated";
  EXPECT_EQ(r.accepted_torn, 0u)
      << "validation accepted a torn cross-node copy";
  EXPECT_EQ(r.stale_accepted, 0u);
  EXPECT_TRUE(r.oracle_ok());
}

TEST(TornOracle, CatchesTheBrokenValidationItGuardsAgainst) {
  // Oracle self-check: with the version re-validation skipped the very
  // same harness must observe accepted torn copies — proving the oracle
  // can see the failure it exists to rule out.
  class SkipValidationShard : public dist::Shard {
   public:
    using Shard::Shard;

   protected:
    bool validate_copy(std::uint64_t) override { return true; }
  };
  const std::uint64_t seed = env_seed(11);
  SCOPED_TRACE(testutil::seed_replay(seed));
  DistChaosConfig shape;
  shape.topology = sim::Topology::split_nodes(2, 2);
  shape.threads = 2;
  dist::ShardConfig sc = shard_config(shape);
  sc.lease.term = 1'000'000'000;
  SkipValidationShard shard(sc);
  htm::Engine engine(engine_config(shape));
  TornOracleConfig cfg;
  cfg.seed = seed;
  const TornOracleResult r = run_torn_oracle(shard, engine, cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.accepted_torn, 0u)
      << "the broken validation slipped past the oracle";
  EXPECT_FALSE(r.oracle_ok());
}

}  // namespace
}  // namespace sprwl::fault
