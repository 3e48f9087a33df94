// Seeded chaos runs: randomized fault schedules against the lock family,
// with the safety invariants (exclusion, no lost updates, no torn reads) and
// the progress watchdog checked on every run.
//
// Seed replay: every scenario derives from env_seed(), so any failure
// reproduces bit-identically; failures print the standard replay line
// (tests/support/seed_replay.h): SPRWL_SEED=<n> to replay.
#include <gtest/gtest.h>

#include <string>

#include "core/sprwl.h"
#include "fault/chaos.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "locks/tle.h"

#include "../locks/lock_test_utils.h"
#include "../support/seed_replay.h"

namespace sprwl::fault {
namespace {

// Chaos-plan event window, matched to the virtual-time length of the
// default 8x150-op scenario (~450k cycles) so planned events land in-run.
constexpr std::uint64_t kHorizon = 450'000;

core::Config sprwl_config(int threads) {
  core::Config cfg;
  cfg.max_threads = threads;
  return cfg;
}

TEST(Chaos, SpRWLSurvivesTwentyFourSeededFaultSchedules) {
  const std::uint64_t base = env_seed(1);
  for (std::uint64_t seed = base; seed < base + 24; ++seed) {
    SCOPED_TRACE(testutil::seed_replay(seed));
    ChaosConfig cfg;
    cfg.seed = seed;
    const FaultPlan plan = FaultPlan::chaos(seed, cfg.threads, kHorizon);
    htm::Engine engine;
    core::SpRWLock lock{sprwl_config(cfg.threads)};
    const ChaosResult r = run_chaos(lock, engine, cfg, plan);
    EXPECT_TRUE(r.completed) << "progress watchdog tripped";
    EXPECT_EQ(r.torn_reads, 0u);
    EXPECT_EQ(r.lost_updates, 0u);
    EXPECT_EQ(r.writes,
              static_cast<std::uint64_t>(cfg.writers) *
                  static_cast<std::uint64_t>(cfg.ops_per_thread));
    EXPECT_TRUE(r.invariants_ok());
  }
}

TEST(Chaos, SeedChangesTheSchedule) {
  // Replay determinism: same seed -> identical run; different seed ->
  // (at least somewhere) different timing.
  ChaosConfig cfg;
  cfg.seed = 5;
  const FaultPlan plan = FaultPlan::chaos(5, cfg.threads, kHorizon);
  htm::Engine e1, e2;
  core::SpRWLock l1{sprwl_config(cfg.threads)};
  core::SpRWLock l2{sprwl_config(cfg.threads)};
  const ChaosResult a = run_chaos(l1, e1, cfg, plan);
  const ChaosResult b = run_chaos(l2, e2, cfg, plan);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.final_value, b.final_value);
  EXPECT_EQ(a.faults.preemptions, b.faults.preemptions);
  EXPECT_EQ(a.faults.syscalls, b.faults.syscalls);
}

TEST(Chaos, StalledReaderEscalationFiresAndIsCounted) {
  // A reader descheduled right after raising its flag (the kReadEnter
  // dangerous window) blocks every writer. With the retry limit out of the
  // way, the stalled-reader watchdog (well inside the retry budget) is what
  // must rescue the writer — visibly, in the escalation stats.
  ChaosConfig cfg;
  cfg.threads = 3;
  cfg.writers = 1;
  cfg.ops_per_thread = 40;
  FaultPlan plan;
  PreemptSpec s;
  s.point = SchedKind::kReadEnter;
  s.tid = 0;
  s.not_before = 10'000;
  s.duration = 1'500'000;  // far past the watchdog threshold
  plan.preempts.push_back(s);

  htm::Engine engine;
  core::Config lcfg = sprwl_config(cfg.threads);
  lcfg.max_retries = 1'000'000;  // retry exhaustion must not fire first
  core::SpRWLock lock{lcfg};
  const ChaosResult r = run_chaos(lock, engine, cfg, plan);
  ASSERT_TRUE(r.invariants_ok());
  EXPECT_GE(r.faults.preemptions, 1u);
  EXPECT_GE(r.lock_stats.escalations.stalled_reader, 1u);
  EXPECT_GE(r.lock_stats.aborts.explicit_reader, 1u);
  EXPECT_GE(r.lock_stats.writes.gl, 1u);  // the escalated write took the SGL
}

TEST(Chaos, RetryLimitEscalatesBeforeTheWatchdog) {
  // Same stall at the default retry limit: the writers' reader aborts use
  // up their attempts before the watchdog's threshold passes, so retry
  // exhaustion, not the watchdog, rescues them.
  ChaosConfig cfg;
  cfg.threads = 3;
  cfg.writers = 1;
  cfg.ops_per_thread = 40;
  FaultPlan plan;
  PreemptSpec s;
  s.point = SchedKind::kReadEnter;
  s.tid = 0;
  s.not_before = 10'000;
  s.duration = 1'500'000;
  plan.preempts.push_back(s);

  htm::Engine engine;
  core::SpRWLock lock{sprwl_config(cfg.threads)};
  const ChaosResult r = run_chaos(lock, engine, cfg, plan);
  ASSERT_TRUE(r.invariants_ok());
  EXPECT_EQ(r.lock_stats.escalations.stalled_reader, 0u);
  EXPECT_GE(r.lock_stats.escalations.fallbacks(), 1u);
  EXPECT_GE(r.lock_stats.escalations.retry_exhausted, 1u);
}

TEST(Chaos, AbortStormSpRWLReadersStayUninstrumentedTLECollapses) {
  // A hard interrupt storm across the whole run. SpRWL's uninstrumented
  // readers cannot abort, so reads keep completing off the HTM path; TLE
  // readers are transactions and collapse onto the global lock.
  ChaosConfig cfg;
  cfg.seed = 11;
  FaultPlan plan;
  plan.seed = 11;
  plan.storm.from = 0;
  plan.storm.until = 100'000'000;  // covers the whole run
  plan.storm.peak_rate = 0.9;

  htm::Engine e1;
  core::SpRWLock sprwl{sprwl_config(cfg.threads)};
  const ChaosResult rs = run_chaos(sprwl, e1, cfg, plan);
  ASSERT_TRUE(rs.invariants_ok());
  EXPECT_GT(rs.lock_stats.reads.unins, 0u);

  htm::Engine e2;
  locks::TLELock::Config tcfg;
  tcfg.max_threads = cfg.threads;
  locks::TLELock tle{tcfg};
  const ChaosResult rt = run_chaos(tle, e2, cfg, plan);
  ASSERT_TRUE(rt.invariants_ok());
  EXPECT_GT(rt.lock_stats.reads.gl, 0u);
  EXPECT_GT(rt.lock_stats.aborts.spurious, 0u);
  // The storm pushes a larger share of TLE's reads onto its pessimistic
  // path than SpRWL's (whose readers never need the SGL to make progress).
  const double tle_gl_share =
      static_cast<double>(rt.lock_stats.reads.gl) /
      static_cast<double>(rt.lock_stats.reads.total());
  const double sprwl_gl_share =
      static_cast<double>(rs.lock_stats.reads.gl) /
      static_cast<double>(rs.lock_stats.reads.total());
  EXPECT_GT(tle_gl_share, sprwl_gl_share);
}

// Every lock of the library must keep the chaos invariants under a mild
// seeded fault schedule (pessimistic locks simply never notice the
// HTM-side faults; preemptions hit everyone).
template <class Lock>
class ChaosAllLocks : public ::testing::Test {};
TYPED_TEST_SUITE(ChaosAllLocks, testutil::AllLockTypes);

TYPED_TEST(ChaosAllLocks, KeepsInvariantsUnderSeededFaults) {
  const std::uint64_t seed = env_seed(3);
  SCOPED_TRACE(testutil::seed_replay(seed));
  ChaosConfig cfg;
  cfg.seed = seed;
  cfg.threads = 6;
  cfg.ops_per_thread = 60;
  const FaultPlan plan = FaultPlan::chaos(seed, cfg.threads, kHorizon / 2);
  htm::Engine engine;
  auto lock = testutil::make_lock<TypeParam>(cfg.threads);
  const ChaosResult r = run_chaos(*lock, engine, cfg, plan);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.torn_reads, 0u);
  EXPECT_EQ(r.lost_updates, 0u);
}

}  // namespace
}  // namespace sprwl::fault
