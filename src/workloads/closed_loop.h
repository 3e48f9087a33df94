// The closed-loop measurement window every workload driver runs (the hash
// map, TPC-C and the lock table): each of cfg.threads fibers issues
// operations back to back until virtual time warmup + measure. One
// iteration reads the clock, runs one operation (its RNG draws, lock call
// and critical section), records the operation's count and latency if it
// started inside the measured window, and charges g_costs.local_work of
// private work before the next one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/costs.h"
#include "common/histogram.h"
#include "common/platform.h"
#include "htm/engine.h"
#include "locks/stats.h"
#include "sim/simulator.h"

namespace sprwl::workloads {

/// What one operation ran: its critical-section id and whether that was a
/// write section.
struct Section {
  int cs_id = 0;
  bool write = false;
};

/// Everything one window produced. Reads and writes count the measured
/// operations by section kind, ops[] by critical-section id.
struct RunResult {
  /// Critical-section ids a driver may use (TPC-C's run from 1 to 5).
  static constexpr int kCsIds = 8;

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::array<std::uint64_t, kCsIds> ops{};
  double duration_cycles = 0;
  LatencyHistogram read_latency;
  LatencyHistogram write_latency;
  locks::LockStats lock_stats;
  htm::EngineStats engine_stats;
  std::uint64_t reader_aborts = 0;  ///< SpRWL / RW-LE "reader" abort class
  sim::SimStats sim_stats;          ///< scheduler counters of the run
  std::uint64_t final_time = 0;     ///< virtual time the last fiber ended

  std::uint64_t committed() const noexcept { return reads + writes; }

  /// Committed critical sections per second of virtual time.
  double throughput_tx_s() const noexcept {
    if (duration_cycles <= 0) return 0;
    return static_cast<double>(committed()) / duration_cycles * g_costs.ghz * 1e9;
  }
};

/// Runs one window and aggregates the per-thread results. `cfg` is a driver
/// config (threads, warmup_cycles, measure_cycles). `lock` is the stats
/// source: reset before the run, read after it (reader_abort_count() only
/// where it has one). make_op(tid) builds fiber tid's operation, a callable
/// that runs one operation and returns the Section it ran.
template <class Lock, class Config, class MakeOp>
RunResult run_closed_loop(sim::Simulator& sim, htm::Engine& engine, Lock& lock,
                          const Config& cfg, MakeOp make_op) {
  struct ThreadResult {
    std::array<std::uint64_t, RunResult::kCsIds> ops{};
    LatencyHistogram read_latency, write_latency;
  };
  std::vector<ThreadResult> results(static_cast<std::size_t>(cfg.threads));

  engine.reset_stats();
  lock.reset_stats();

  const std::uint64_t measure_start = cfg.warmup_cycles;
  const std::uint64_t measure_end = cfg.warmup_cycles + cfg.measure_cycles;

  // Installed once around the whole run (not per fiber): fibers finish at
  // different virtual times, and a per-fiber scope would uninstall the
  // engine under the feet of the fibers still running. Scoping on the
  // calling thread also keeps concurrent bench workers isolated — the
  // engine resolves through a thread-local first, and every fiber of this
  // simulator runs on this OS thread.
  htm::EngineScope scope(engine);
  sim.run(cfg.threads, [&](int tid) {
    auto op = make_op(tid);
    ThreadResult& mine = results[static_cast<std::size_t>(tid)];
    for (;;) {
      const std::uint64_t t0 = platform::now();
      if (t0 >= measure_end) break;
      const Section s = op();
      if (t0 >= measure_start) {
        ++mine.ops[static_cast<std::size_t>(s.cs_id)];
        (s.write ? mine.write_latency : mine.read_latency)
            .record(platform::now() - t0);
      }
      platform::advance(g_costs.local_work);  // between-ops private work
    }
  });

  RunResult out;
  for (const ThreadResult& r : results) {
    for (std::size_t i = 0; i < out.ops.size(); ++i) out.ops[i] += r.ops[i];
    out.read_latency.merge(r.read_latency);
    out.write_latency.merge(r.write_latency);
  }
  out.reads = out.read_latency.count();
  out.writes = out.write_latency.count();
  out.duration_cycles = static_cast<double>(cfg.measure_cycles);
  out.lock_stats = lock.stats();
  out.engine_stats = engine.stats();
  if constexpr (requires { lock.reader_abort_count(); }) {
    out.reader_aborts = lock.reader_abort_count();
  }
  out.sim_stats = sim.stats();
  out.final_time = sim.final_time();
  return out;
}

}  // namespace sprwl::workloads
