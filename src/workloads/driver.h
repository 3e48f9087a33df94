// Hash-map workload driver: the mixed lookup/insert/delete workload of the
// paper's Section 4.1 as one closed-loop window (workloads/closed_loop.h)
// under the virtual-time simulator — throughput, per-type latencies,
// commit-mode breakdown and abort breakdown.
//
// The driver is templated on the lock type; every lock in this library
// exposes the same region interface (read(cs_id, f) / write(cs_id, f)),
// stats() and reset_stats().
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "htm/engine.h"
#include "sim/simulator.h"
#include "workloads/closed_loop.h"
#include "workloads/hashmap.h"

namespace sprwl::workloads {

struct DriverConfig {
  int threads = 4;
  double update_ratio = 0.1;
  int lookups_per_read = 10;
  std::uint64_t key_space = 1u << 16;
  std::uint64_t warmup_cycles = 1'000'000;
  std::uint64_t measure_cycles = 10'000'000;
  std::uint64_t seed = 1;
};

/// Runs cfg.measure_cycles of virtual time after a warmup. Reads are
/// critical section 0 (cfg.lookups_per_read lookups), writes section 1 (an
/// insert or an erase). Deterministic given cfg.seed.
template <class Lock>
RunResult run_hashmap(sim::Simulator& sim, htm::Engine& engine, Lock& lock,
                      HashMap& map, const DriverConfig& cfg) {
  return run_closed_loop(sim, engine, lock, cfg, [&](int tid) {
    return [&, rng = Rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<std::uint64_t>(tid))]() mutable {
      if (rng.next_bool(cfg.update_ratio)) {
        const std::uint64_t key = rng.next_below(cfg.key_space);
        const bool do_insert = rng.next_bool(0.5);
        lock.write(1, [&] {
          if (do_insert) {
            map.insert(key, key * 3 + 1);
          } else {
            map.erase(key);
          }
        });
        return Section{1, true};
      }
      lock.read(0, [&] {
        for (int i = 0; i < cfg.lookups_per_read; ++i) {
          map.lookup(rng.next_below(cfg.key_space));
        }
      });
      return Section{0, false};
    };
  });
}

}  // namespace sprwl::workloads
