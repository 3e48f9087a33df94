// Lock advisor: runs a user-described workload (update ratio, reader size,
// thread count) under every lock in the library and prints a ranked table —
// the "which synchronization primitive should I use?" question the paper's
// evaluation answers per workload regime.
//
//   build/examples/lock_advisor [updates%] [lookups-per-read] [threads]
//   e.g. build/examples/lock_advisor 10 10 28
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/sprwl.h"
#include "htm/engine.h"
#include "locks/brlock.h"
#include "locks/passive_rwlock.h"
#include "locks/phase_fair.h"
#include "locks/posix_rwlock.h"
#include "locks/rwle.h"
#include "locks/tle.h"
#include "sim/simulator.h"
#include "workloads/driver.h"
#include "workloads/hashmap.h"

namespace {

using namespace sprwl;

struct Entry {
  std::string name;
  double tx_s;
  double read_lat;
  double write_lat;
};

template <class Lock>
Entry measure(const char* name, std::unique_ptr<Lock> lock,
              const workloads::DriverConfig& dc) {
  htm::Engine engine{htm::EngineConfig{}};
  workloads::HashMap::Config mc;
  mc.buckets = 256;
  mc.capacity = 65536;
  mc.max_threads = dc.threads;
  workloads::HashMap map(mc);
  Rng rng(3);
  map.populate(32768, dc.key_space, rng);
  sim::Simulator sim;
  const workloads::RunResult r = run_hashmap(sim, engine, *lock, map, dc);
  return Entry{name, r.throughput_tx_s(), r.read_latency.mean(),
               r.write_latency.mean()};
}

}  // namespace

int main(int argc, char** argv) {
  const double updates = argc > 1 ? std::atof(argv[1]) / 100.0 : 0.10;
  const int lookups = argc > 2 ? std::atoi(argv[2]) : 10;
  const int threads = argc > 3 ? std::atoi(argv[3]) : 28;

  workloads::DriverConfig dc;
  dc.threads = threads;
  dc.update_ratio = updates;
  dc.lookups_per_read = lookups;
  dc.key_space = 65536;
  dc.warmup_cycles = 300'000;
  dc.measure_cycles = 3'000'000;
  dc.seed = 3;

  std::printf("workload: %.0f%% updates, %d lookups/read, %d threads\n",
              updates * 100, lookups, threads);

  std::vector<Entry> results;
  results.push_back(measure("SpRWL",
                            std::make_unique<core::SpRWLock>(core::Config::variant(
                                core::SchedulingVariant::kFull, threads)),
                            dc));
  {
    core::Config c = core::Config::variant(core::SchedulingVariant::kFull, threads);
    c.tracking = core::Tracking::kSnzi;
    results.push_back(
        measure("SpRWL+SNZI", std::make_unique<core::SpRWLock>(c), dc));
  }
  {
    locks::TLELock::Config c;
    c.max_threads = threads;
    results.push_back(measure("TLE", std::make_unique<locks::TLELock>(c), dc));
  }
  {
    locks::RWLELock::Config c;
    c.max_threads = threads;
    results.push_back(measure("RW-LE", std::make_unique<locks::RWLELock>(c), dc));
  }
  results.push_back(
      measure("RWL", std::make_unique<locks::PosixRWLock>(threads), dc));
  results.push_back(
      measure("BRLock", std::make_unique<locks::BRLock>(threads), dc));
  results.push_back(
      measure("PhaseFair", std::make_unique<locks::PhaseFairRWLock>(threads), dc));
  results.push_back(
      measure("PRWL", std::make_unique<locks::PassiveRWLock>(threads), dc));

  std::sort(results.begin(), results.end(),
            [](const Entry& a, const Entry& b) { return a.tx_s > b.tx_s; });

  std::printf("%-12s %12s %14s %14s\n", "lock", "tx/s", "read lat (cy)",
              "write lat (cy)");
  for (const Entry& e : results) {
    std::printf("%-12s %12.3e %14.0f %14.0f\n", e.name.c_str(), e.tx_s, e.read_lat,
                e.write_lat);
  }
  std::printf("\nrecommendation: %s\n", results.front().name.c_str());
  return 0;
}
