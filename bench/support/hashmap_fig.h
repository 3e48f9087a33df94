// Shared runner for the hash-map figures (Figs. 3-6): builds the map at the
// per-machine population the paper uses (sized so that the 10-lookup reader
// exceeds HTM capacity while a single update fits), runs the mixed workload
// under a given lock for each thread count, and prints one series row per
// point.
//
// Points are submitted to a bench::Runner: each (lock, thread-count) pair
// is an independent experiment — its own Engine, map, lock and Simulator —
// computed on whichever pool thread picks it up, with the row printed in
// declaration order at drain() time (byte-identical to a serial run).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "bench/support/bench_common.h"
#include "bench/support/runner.h"
#include "common/rng.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "locks/brlock.h"
#include "locks/posix_rwlock.h"
#include "locks/rwle.h"
#include "locks/tle.h"
#include "sim/simulator.h"
#include "workloads/driver.h"
#include "workloads/hashmap.h"

namespace sprwl::bench {

struct HashmapFigParams {
  double update_ratio = 0.1;
  int lookups_per_read = 10;
  std::uint64_t population = 32768;
  std::uint64_t key_space = 65536;
  std::uint32_t buckets = 256;  // population/buckets = chain length
  std::uint64_t warmup_cycles = 500'000;
  std::uint64_t measure_cycles = 3'000'000;
  std::uint64_t seed = 42;
};

/// Map geometry per machine: Broadwell gets long chains (the paper
/// populates 8M items there), POWER8 shorter ones (3M items) — scaled so
/// the capacity regimes match (see DESIGN.md).
inline HashmapFigParams machine_params(const Machine& m, const Args& args) {
  HashmapFigParams p;
  p.seed = args.seed;
  if (std::string(m.name) == "power8") {
    p.buckets = 1024;  // chain ~32: 10 lookups ~160 lines > 128
  } else {
    p.buckets = 256;  // chain ~128: 10 lookups ~640 lines > 512
  }
  if (args.measure_cycles != 0) {
    p.measure_cycles = args.measure_cycles;
  } else if (args.full) {
    p.measure_cycles = 10'000'000;
  }
  return p;
}

inline workloads::HashMap make_figure_map(const HashmapFigParams& p,
                                          int max_threads) {
  workloads::HashMap::Config mc;
  mc.buckets = p.buckets;
  mc.capacity = static_cast<std::uint32_t>(p.population * 2);
  mc.max_threads = max_threads;
  workloads::HashMap map(mc);
  Rng rng(p.seed);
  map.populate(p.population, p.key_space, rng);
  return map;
}

/// Everything one data point produced, available to SeriesOptions::observe
/// at emit time (declaration order).
struct SeriesPoint {
  std::string lock;
  int threads = 0;
  workloads::RunResult run;
  sim::SimStats sim_stats;        ///< scheduler counters of the point's run
  std::uint64_t final_time = 0;   ///< virtual end time of the point's run
};

struct SeriesOptions {
  /// Simulator configuration for every point (perf_pipeline flips
  /// direct_switch off here to time the classic scheduler).
  sim::SimConfig sim{};
  /// Row sink; default prints to stdout. Runs at emit time, in order.
  std::function<void(const std::string&)> out;
  /// Per-point hook after the row is emitted (aggregation, JSON).
  std::function<void(const SeriesPoint&)> observe;
};

/// Submits one point per thread count to `runner`. make_lock(threads)
/// returns a unique_ptr to the lock; it is copied into each point's task,
/// so the factory must own what it captures (all call sites pass small
/// value-capturing lambdas). Rows appear in declaration order at drain().
template <class MakeLock>
void hashmap_series(Runner& runner, const char* lock_name, const Machine& m,
                    const HashmapFigParams& p, const std::vector<int>& threads,
                    MakeLock make_lock, const SeriesOptions& opt = {}) {
  for (const int n : threads) {
    auto point = std::make_shared<SeriesPoint>();
    point->lock = lock_name;
    point->threads = n;
    runner.submit(
        [point, m, p, n, make_lock, sim_cfg = opt.sim] {
          htm::EngineConfig ec;
          ec.capacity = m.capacity_at(n);
          ec.max_threads = n;
          ec.seed = p.seed;
          htm::Engine engine(ec);
          workloads::HashMap map = make_figure_map(p, n);
          auto lock = make_lock(n);
          workloads::DriverConfig dc;
          dc.threads = n;
          dc.update_ratio = p.update_ratio;
          dc.lookups_per_read = p.lookups_per_read;
          dc.key_space = p.key_space;
          dc.warmup_cycles = p.warmup_cycles;
          dc.measure_cycles = p.measure_cycles;
          dc.seed = p.seed;
          sim::Simulator sim(sim_cfg);
          point->run = run_hashmap(sim, engine, *lock, map, dc);
          point->sim_stats = sim.stats();
          point->final_time = sim.final_time();
        },
        [point, out = opt.out, observe = opt.observe] {
          const workloads::RunResult& r = point->run;
          const Breakdown b =
              make_breakdown(r.engine_stats, r.lock_stats, r.reader_aborts);
          const std::string row =
              format_series_row(point->lock.c_str(), point->threads,
                                r.throughput_tx_s(), b, r.read_latency.mean(),
                                r.write_latency.mean());
          if (out) {
            out(row);
          } else {
            std::fputs(row.c_str(), stdout);
          }
          if (observe) observe(*point);
        });
  }
}

// Lock factories shared by the figures.
inline auto make_tle() {
  return [](int n) {
    locks::TLELock::Config c;
    c.max_threads = n;
    return std::make_unique<locks::TLELock>(c);
  };
}
inline auto make_rwl() {
  return [](int n) { return std::make_unique<locks::PosixRWLock>(n); };
}
inline auto make_brlock() {
  return [](int n) { return std::make_unique<locks::BRLock>(n); };
}
inline auto make_rwle() {
  return [](int n) {
    locks::RWLELock::Config c;
    c.max_threads = n;
    return std::make_unique<locks::RWLELock>(c);
  };
}
inline auto make_sprwl(core::SchedulingVariant v = core::SchedulingVariant::kFull,
                       bool batched_scan = true) {
  return [v, batched_scan](int n) {
    core::Config c = core::Config::variant(v, n);
    c.batched_reader_scan = batched_scan;
    return std::make_unique<core::SpRWLock>(c);
  };
}

}  // namespace sprwl::bench
