// Figure 7 — TPC-C with the paper's mix (Stock-Level 31%, Delivery 4%,
// Order-Status 4%, Payment 43%, New-Order 18%), every transaction executed
// as a critical section of one global RWLock, warehouses = the maximum
// thread count of the sweep.
//
// Expected shape (paper): despite only 35% read-only transactions, SpRWL
// wins up to 4x (Broadwell) / 2x (POWER8) over the best baseline, because
// ~70% of update transactions commit in HTM while long Stock-Level readers
// run uninstrumented. TLE cannot elide Stock-Level; RW-LE pays quiescence
// in writer latency; SNZI helps on POWER8 (smaller writer footprint) and
// hurts on Broadwell.
//
// Data points (including database population) run in parallel across
// SPRWL_BENCH_JOBS OS threads; output is byte-identical to a serial run.
#include <cstdio>
#include <memory>

#include "bench/support/bench_common.h"
#include "bench/support/runner.h"
#include "core/sprwl.h"
#include "locks/brlock.h"
#include "locks/posix_rwlock.h"
#include "locks/rwle.h"
#include "locks/tle.h"
#include "sim/simulator.h"
#include "tpcc/tpcc_driver.h"

namespace sprwl::bench {
namespace {

tpcc::Scale bench_scale(int warehouses, int max_threads, std::uint64_t seed) {
  tpcc::Scale s;
  s.warehouses = warehouses;
  s.districts_per_warehouse = 10;
  s.customers_per_district = 300;
  s.items = 5000;
  s.order_ring = 128;
  s.max_threads = max_threads;
  s.history_per_thread = 4096;
  s.seed = seed;
  return s;
}

/// make_lock(threads) must own its captures (copied into the pool task).
template <class MakeLock>
void tpcc_series(Runner& runner, const char* lock_name, const Machine& m,
                 const Args& args, const std::vector<int>& threads,
                 int warehouses, MakeLock make_lock) {
  for (const int n : threads) {
    auto point = std::make_shared<tpcc::TpccRunResult>();
    runner.submit(
        [point, m, args, n, warehouses, make_lock] {
          htm::EngineConfig ec;
          ec.capacity = m.capacity_at(n);
          ec.max_threads = n;
          ec.seed = args.seed;
          htm::Engine engine(ec);
          // Fresh database per point, as the paper restarts runs.
          tpcc::Database db(bench_scale(warehouses, n, args.seed));
          db.populate();
          auto lock = make_lock(n);
          tpcc::TpccDriverConfig dc;
          dc.threads = n;
          dc.seed = args.seed;
          dc.warmup_cycles = 300'000;
          dc.measure_cycles = args.measure_cycles != 0 ? args.measure_cycles
                              : args.full              ? 8'000'000
                                                       : 3'000'000;
          sim::Simulator sim;
          *point = run_tpcc(sim, engine, *lock, db, dc);
        },
        [point, lock_name = std::string(lock_name), n] {
          const Breakdown b = make_breakdown(point->engine_stats,
                                             point->lock_stats,
                                             point->reader_aborts);
          print_series_row(lock_name.c_str(), n, point->throughput_tx_s(), b,
                           point->read_latency.mean(),
                           point->write_latency.mean());
        });
  }
}

void run_machine(Runner& runner, const Machine& m, const Args& args) {
  const std::vector<int>& threads = m.threads(args.full);
  const int warehouses = threads.back();  // paper: warehouses = max threads
  const bool is_power8 = std::string(m.name) == "power8";
  runner.submit({}, [name = std::string(m.name), warehouses] {
    std::printf("\n--- fig7 | %s | warehouses = %d ---\n", name.c_str(),
                warehouses);
    print_series_header();
  });
  tpcc_series(runner, "TLE", m, args, threads, warehouses, [](int n) {
    locks::TLELock::Config c;
    c.max_threads = n;
    return std::make_unique<locks::TLELock>(c);
  });
  tpcc_series(runner, "RWL", m, args, threads, warehouses,
              [](int n) { return std::make_unique<locks::PosixRWLock>(n); });
  tpcc_series(runner, "BRLock", m, args, threads, warehouses,
              [](int n) { return std::make_unique<locks::BRLock>(n); });
  if (is_power8) {
    tpcc_series(runner, "RW-LE", m, args, threads, warehouses, [](int n) {
      locks::RWLELock::Config c;
      c.max_threads = n;
      return std::make_unique<locks::RWLELock>(c);
    });
  }
  tpcc_series(runner, "SpRWL", m, args, threads, warehouses, [](int n) {
    return std::make_unique<core::SpRWLock>(
        core::Config::variant(core::SchedulingVariant::kFull, n));
  });
  tpcc_series(runner, "SNZI", m, args, threads, warehouses, [](int n) {
    core::Config c = core::Config::variant(core::SchedulingVariant::kFull, n);
    c.tracking = core::Tracking::kSnzi;
    return std::make_unique<core::SpRWLock>(c);
  });
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  using namespace sprwl::bench;
  const Args args = Args::parse(argc, argv);
  std::printf(
      "Fig. 7 — TPC-C (SL 31%% / D 4%% / OS 4%% / P 43%% / NO 18%%), one "
      "global RWLock\n");
  Runner runner;
  if (args.want_profile("broadwell")) run_machine(runner, broadwell_machine(), args);
  if (args.want_profile("power8")) run_machine(runner, power8_machine(), args);
  runner.drain();
  return 0;
}
