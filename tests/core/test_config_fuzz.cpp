// Configuration fuzz: SpRWL's safety properties must hold for EVERY
// combination of its knobs (scheduling variant, tracking scheme, retry
// count, versioned SGL, δ, SNZI depth) under every capacity profile.
// Each fuzz case derives a random-but-deterministic Config from its index
// and runs the torn-read + lost-update workload.
#include <gtest/gtest.h>

#include <vector>

#include "common/platform.h"
#include "common/rng.h"
#include "core/sprwl.h"
#include "fault/fault.h"
#include "htm/shared.h"
#include "sim/simulator.h"

#include "../support/seed_replay.h"

namespace sprwl::core {
namespace {

Config fuzz_config(std::uint64_t index, int threads) {
  Rng rng(0xF022 + index * 0x9E37);
  Config cfg;
  cfg.max_threads = threads;
  cfg.max_retries = static_cast<int>(rng.next_in(1, 20));
  rng.next_in(1, 10);  // unused draw: keeps each index's config stable
  // One draw per scheduling mechanism keeps every index's other fields;
  // the first mechanism drawn off picks the variant that lacks it.
  const bool reader_sync = rng.next_bool(0.7);
  const bool reader_join = reader_sync && rng.next_bool(0.7);
  const bool writer_sync = rng.next_bool(0.5);
  cfg.scheduling = !reader_sync   ? SchedulingVariant::kNoSched
                   : !reader_join ? SchedulingVariant::kRWait
                   : !writer_sync ? SchedulingVariant::kRSync
                                  : SchedulingVariant::kFull;
  cfg.reader_htm_first = rng.next_bool(0.5);
  const bool snzi = rng.next_bool(0.3);
  cfg.tracking = snzi                  ? Tracking::kSnzi
                 : rng.next_bool(0.3) ? Tracking::kAdaptive
                                      : Tracking::kFlags;
  rng.next_in(100, 50'000);  // unused draw (the adaptive threshold's)
  cfg.versioned_sgl = rng.next_bool(0.3);
  cfg.delta_fraction = rng.next_double();
  rng.next_double();  // unused draw (the EMA weight's)
  cfg.snzi_levels = static_cast<int>(rng.next_in(0, 4));
  return cfg;
}

htm::CapacityProfile fuzz_capacity(std::uint64_t index) {
  switch (index % 4) {
    case 0:
      return htm::kBroadwell;
    case 1:
      return htm::kPower8;
    case 2:
      return htm::CapacityProfile{"tiny", 8, 4};
    default:
      return htm::kUnbounded;
  }
}

class SpRWLConfigFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SpRWLConfigFuzz, SafetyHoldsForArbitraryConfigs) {
  // SPRWL_SEED shifts the whole sweep onto fresh configs/schedules; the
  // default (0) keeps the historical deterministic cases. Failures print
  // the standard replay line (tests/support/seed_replay.h).
  const std::uint64_t base = fault::env_seed(0);
  const auto index = static_cast<std::uint64_t>(GetParam()) + base;
  SCOPED_TRACE("config index " + std::to_string(index) + "; " +
               testutil::seed_replay(base));
  const int threads = 2 + static_cast<int>(index % 7);
  htm::EngineConfig ec;
  ec.capacity = fuzz_capacity(index);
  ec.max_threads = threads;
  ec.spurious_abort_rate = (index % 5 == 0) ? 0.001 : 0.0;
  htm::Engine engine(ec);
  htm::EngineScope scope(engine);
  SpRWLock lock{fuzz_config(index, threads)};

  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  htm::Shared<std::uint64_t> counter;
  std::uint64_t torn = 0;
  std::uint64_t expected_increments = 0;

  sim::Simulator sim;
  sim.run(threads, [&](int tid) {
    Rng rng(index * 31 + static_cast<std::uint64_t>(tid));
    std::uint64_t mine = 0;
    for (int i = 0; i < 120; ++i) {
      if (rng.next_bool(0.35)) {
        lock.write(1, [&] {
          counter.store(counter.load() + 1);
          const std::uint64_t v = p.a.load() + 1;
          p.a.store(v);
          platform::advance(rng.next_below(300));
          p.b.store(v);
        });
        ++mine;
      } else {
        lock.read(0, [&] {
          const std::uint64_t a = p.a.load();
          platform::advance(rng.next_below(300));
          if (p.b.load() != a) ++torn;
        });
      }
      platform::advance(rng.next_below(150));
    }
    expected_increments += mine;
  });

  EXPECT_EQ(torn, 0u) << "config index " << index;
  EXPECT_EQ(counter.raw_load(), expected_increments);
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
  EXPECT_EQ(p.a.raw_load(), expected_increments);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpRWLConfigFuzz, ::testing::Range(0, 32));

}  // namespace
}  // namespace sprwl::core
