// Determinism regression for the parallel bench runner: fanning data
// points across a worker pool must not change a single byte of bench
// output, and every per-point result (virtual end time included) must be
// bit-identical to the serial run. This is the contract that lets
// perf_pipeline's parallel mode publish the same figure data as serial.
#include "bench/support/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/support/hashmap_fig.h"

namespace sprwl::bench {
namespace {

TEST(Runner, EmitsInSubmissionOrder) {
  Runner runner(4);
  std::string order;
  for (int i = 0; i < 16; ++i) {
    runner.submit([] {}, [&order, i] { order += static_cast<char>('a' + i); });
  }
  runner.drain();
  EXPECT_EQ(order, "abcdefghijklmnop");
}

TEST(Runner, EmitOnlyTasksInterleaveWithComputes) {
  Runner runner(3);
  std::string order;
  runner.submit({}, [&] { order += "H"; });  // header, no compute
  for (int i = 0; i < 3; ++i) {
    runner.submit([] {}, [&order] { order += "r"; });
  }
  runner.submit({}, [&] { order += "H"; });
  runner.submit([] {}, [&order] { order += "r"; });
  runner.drain();
  EXPECT_EQ(order, "HrrrHr");
}

TEST(Runner, SubmitTimedDeliversWallTimeInSubmissionOrder) {
  Runner runner(4);
  std::vector<double> wall;
  std::string order;
  for (int i = 0; i < 6; ++i) {
    runner.submit_timed(
        [] {
          volatile unsigned sink = 0;
          for (unsigned j = 0; j < 50'000; ++j) sink = sink + j;
        },
        [&, i](double ms) {
          order += static_cast<char>('a' + i);
          wall.push_back(ms);
        });
  }
  runner.drain();
  EXPECT_EQ(order, "abcdef");
  ASSERT_EQ(wall.size(), 6u);
  for (const double ms : wall) {
    EXPECT_GE(ms, 0.0);
    EXPECT_LT(ms, 60'000.0) << "wall time should be milliseconds, not ns";
  }
}

TEST(Runner, ComputeExceptionPropagatesAtDrain) {
  Runner runner(2);
  runner.submit([] { throw std::runtime_error("boom"); }, [] { FAIL(); });
  EXPECT_THROW(runner.drain(), std::runtime_error);
}

TEST(Runner, JobsFromEnvHonorsOverride) {
  ::setenv("SPRWL_BENCH_JOBS", "3", 1);
  EXPECT_EQ(Runner::jobs_from_env(), 3);
  ::unsetenv("SPRWL_BENCH_JOBS");
  EXPECT_GE(Runner::jobs_from_env(), 1);
}

// One reduced hash-map series (three locks, two thread counts) captured
// through SeriesOptions. Returns the concatenated rows plus each point's
// virtual end time.
struct SuiteCapture {
  std::string rows;
  std::vector<std::uint64_t> final_times;
};

SuiteCapture run_suite(int jobs, std::uint64_t seed) {
  SuiteCapture cap;
  SeriesOptions opt;
  opt.out = [&cap](const std::string& s) { cap.rows += s; };
  opt.observe = [&cap](const workloads::RunResult& r) {
    cap.final_times.push_back(r.final_time);
  };
  const Machine m = broadwell_machine();
  HashmapFigParams p;
  p.seed = seed;
  p.population = 2048;
  p.key_space = 4096;
  p.buckets = 64;
  p.warmup_cycles = 20'000;
  p.measure_cycles = 100'000;
  const std::vector<int> threads{2, 4};
  Runner runner(jobs);
  hashmap_series(runner, "TLE", m, p, threads, make_tle(), opt);
  hashmap_series(runner, "RWL", m, p, threads, make_rwl(), opt);
  hashmap_series(runner, "SpRWL", m, p, threads, make_sprwl(), opt);
  runner.drain();
  return cap;
}

TEST(ParallelDeterminism, ParallelOutputByteIdenticalToSerialAcrossSeeds) {
  for (const std::uint64_t seed : {42u, 7u, 1234u}) {
    const SuiteCapture serial = run_suite(/*jobs=*/1, seed);
    const SuiteCapture parallel = run_suite(/*jobs=*/4, seed);
    ASSERT_FALSE(serial.rows.empty());
    EXPECT_EQ(serial.rows, parallel.rows) << "seed " << seed;
    EXPECT_EQ(serial.final_times, parallel.final_times) << "seed " << seed;
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree) {
  const SuiteCapture a = run_suite(/*jobs=*/4, /*seed=*/42);
  const SuiteCapture b = run_suite(/*jobs=*/4, /*seed=*/42);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.final_times, b.final_times);
}

// The NUMA sweep's shape (fig_numa_scaling): a 2-socket topology with
// line-owner tracking in the engine and socket-sharded reader tracking in
// the lock. The coherence model's owner table lives per engine and each
// point owns its engine, so fanning points across workers must stay
// byte-identical to the serial run.
SuiteCapture run_numa_suite(int jobs, std::uint64_t seed) {
  SuiteCapture cap;
  const Machine m = broadwell_machine();
  HashmapFigParams p;
  p.seed = seed;
  p.population = 2048;
  p.key_space = 4096;
  p.buckets = 64;
  p.warmup_cycles = 20'000;
  p.measure_cycles = 100'000;
  Runner runner(jobs);
  for (const int n : {2, 4}) {
    for (const bool sharded : {false, true}) {
      auto run = std::make_shared<workloads::RunResult>();
      runner.submit(
          [run, m, p, n, sharded] {
            htm::EngineConfig ec;
            ec.topology = sim::Topology::split(n, 2);
            ec.track_line_owners = true;
            *run = hashmap_point(
                m, p, n,
                [&ec, sharded](int threads) {
                  core::Config c = core::Config::variant(
                      core::SchedulingVariant::kFull, threads);
                  c.topology = ec.topology;
                  c.socket_sharded_tracking = sharded;
                  return std::make_unique<core::SpRWLock>(c);
                },
                ec);
          },
          [run, n, sharded, &cap] {
            cap.rows += format_series_row(sharded ? "sharded" : "flat", n, *run);
            cap.final_times.push_back(run->final_time);
          });
    }
  }
  runner.drain();
  return cap;
}

TEST(ParallelDeterminism, TopologyEnabledSuiteIsByteIdenticalAcrossJobs) {
  for (const std::uint64_t seed : {42u, 7u}) {
    const SuiteCapture serial = run_numa_suite(/*jobs=*/1, seed);
    const SuiteCapture parallel = run_numa_suite(/*jobs=*/4, seed);
    ASSERT_FALSE(serial.rows.empty());
    EXPECT_EQ(serial.rows, parallel.rows) << "seed " << seed;
    EXPECT_EQ(serial.final_times, parallel.final_times) << "seed " << seed;
  }
}

}  // namespace
}  // namespace sprwl::bench
