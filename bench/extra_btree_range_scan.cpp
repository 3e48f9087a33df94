// Extra experiment — ordered-index range scans. The paper's introduction
// motivates SpRWL with "long read-only operations, such as range queries
// and long traversals"; this bench runs them literally: a transactional
// B+-tree under one RWLock, readers performing range_count() over windows
// of sweeping width, writers inserting/erasing single keys. As the range
// width grows past HTM capacity the same crossover as Fig. 3 appears on a
// realistic ordered index.
#include <array>
#include <cstdio>
#include <memory>

#include "bench/support/bench_common.h"
#include "bench/support/runner.h"
#include "core/sprwl.h"
#include "locks/posix_rwlock.h"
#include "locks/tle.h"
#include "sim/simulator.h"
#include "structures/btree.h"

namespace sprwl::bench {
namespace {

constexpr std::uint64_t kKeySpace = 1 << 16;

template <class Lock>
double run_point(const Machine& m, Lock& lock, int threads,
                 std::uint64_t range_width, std::uint64_t measure,
                 std::uint64_t seed) {
  htm::EngineConfig ec;
  ec.capacity = m.capacity_at(threads);
  ec.max_threads = threads;
  ec.seed = seed;
  htm::Engine engine(ec);
  // One scope around population and run, on this thread — not per fiber
  // (see workloads/driver.h). Installed before the tree is filled: outside
  // a scope, Shared<T> stores resolve to the process-wide engine, which in
  // a parallel sweep is another worker's and may already be destroyed.
  htm::EngineScope scope(engine);
  structures::BTree::Config tc;
  tc.capacity = 1 << 15;
  tc.max_threads = threads;
  structures::BTree tree(tc);
  {
    ThreadIdScope tid(0);
    Rng rng(seed);
    for (int i = 0; i < 30000; ++i) {
      const std::uint64_t k = rng.next_below(kKeySpace);
      tree.insert(k, k);
    }
  }
  std::uint64_t ops = 0;
  sim::Simulator sim;
  sim.run(threads, [&](int tid) {
    Rng rng(seed * 31 + static_cast<std::uint64_t>(tid));
    std::uint64_t mine = 0;
    while (platform::now() < measure) {
      if (rng.next_bool(0.10)) {
        const std::uint64_t k = rng.next_below(kKeySpace);
        const bool add = rng.next_bool(0.5);
        lock.write(1, [&] {
          if (add) {
            tree.insert(k, k);
          } else {
            tree.erase(k);
          }
        });
      } else {
        const std::uint64_t lo = rng.next_below(kKeySpace - range_width);
        lock.read(0, [&] { (void)tree.range_count(lo, lo + range_width); });
      }
      ++mine;
      platform::advance(g_costs.local_work);
    }
    ops += mine;
  });
  return static_cast<double>(ops) / static_cast<double>(measure) * g_costs.ghz * 1e9;
}

void run(const Args& args) {
  const Machine m = broadwell_machine();
  const int threads = args.full ? 56 : 28;
  const std::uint64_t measure =
      args.measure_cycles != 0 ? args.measure_cycles : (args.full ? 8'000'000 : 3'000'000);

  std::printf(
      "Extra: B+-tree range scans under one RWLock | %s | %d threads | 10%% "
      "updates\n",
      m.name, threads);
  std::printf("%10s | %12s %12s %12s | %s\n", "range", "TLE", "RWL", "SpRWL",
              "SpRWL/TLE");
  Runner runner;
  for (const std::uint64_t width : {64ull, 512ull, 4096ull, 16384ull}) {
    auto res = std::make_shared<std::array<double, 3>>();
    const std::uint64_t seed = args.seed;
    runner.submit([res, m, threads, width, measure, seed] {
      locks::TLELock::Config tc;
      tc.max_threads = threads;
      locks::TLELock tle{tc};
      (*res)[0] = run_point(m, tle, threads, width, measure, seed);
    });
    runner.submit([res, m, threads, width, measure, seed] {
      locks::PosixRWLock rwl{threads};
      (*res)[1] = run_point(m, rwl, threads, width, measure, seed);
    });
    runner.submit(
        [res, m, threads, width, measure, seed] {
          core::SpRWLock sprwl{
              core::Config::variant(core::SchedulingVariant::kFull, threads)};
          (*res)[2] = run_point(m, sprwl, threads, width, measure, seed);
        },
        [res, width] {
          const double t_tle = (*res)[0], t_rwl = (*res)[1], t_sp = (*res)[2];
          std::printf("%10llu | %12.3e %12.3e %12.3e | %8.2fx\n",
                      static_cast<unsigned long long>(width), t_tle, t_rwl,
                      t_sp, t_tle > 0 ? t_sp / t_tle : 0.0);
        });
  }
  runner.drain();
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  sprwl::bench::run(sprwl::bench::Args::parse(argc, argv));
  return 0;
}
