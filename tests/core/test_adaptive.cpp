// Self-tuning reader tracking (Section 5 future work): flags for short
// readers, SNZI for long ones, with drain-based transitions that never hide
// an active reader from writers.
#include <gtest/gtest.h>

#include "common/platform.h"
#include "core/sprwl.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

Config adaptive_config(int threads) {
  Config cfg = Config::variant(SchedulingVariant::kFull, threads);
  cfg.tracking = Tracking::kAdaptive;
  cfg.reader_htm_first = false;  // exercise the tracked (uninstrumented) path
  return cfg;
}

TEST(AdaptiveTracking, StartsWithFlags) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{adaptive_config(4)};
  EXPECT_FALSE(lock.tracking_with_snzi());
  EXPECT_FALSE(lock.tracking_transition_active());
}

TEST(AdaptiveTracking, LongReadersFlipToSnzi) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{adaptive_config(2)};
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 20; ++i) {
      lock.read(0, [&] { platform::advance(100'000); });
    }
  });
  EXPECT_TRUE(lock.tracking_with_snzi());
  EXPECT_FALSE(lock.tracking_transition_active());  // drained & finalized
}

TEST(AdaptiveTracking, ShortReadersStayOnFlags) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{adaptive_config(2)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 50; ++i) {
      lock.read(0, [&] { (void)x.v.load(); });
    }
  });
  EXPECT_FALSE(lock.tracking_with_snzi());
}

TEST(AdaptiveTracking, FlipsBackWhenReadersShorten) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{adaptive_config(2)};
  sim::Simulator sim;
  sim.run(1, [&](int) {
    for (int i = 0; i < 10; ++i) {
      lock.read(0, [&] { platform::advance(100'000); });
    }
  });
  EXPECT_TRUE(lock.tracking_with_snzi());
  sim::Simulator sim2;
  sim2.run(1, [&](int) {
    for (int i = 0; i < 30; ++i) {
      lock.read(0, [&] { platform::advance(100); });
    }
  });
  EXPECT_FALSE(lock.tracking_with_snzi());
}

TEST(AdaptiveTracking, SafetyAcrossTransitions) {
  // Readers alternate between long and short phases so the lock keeps
  // flipping modes while writers update a two-word invariant: no reader
  // may ever observe a torn pair, transition or not.
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{adaptive_config(8)};
  struct alignas(64) Pair {
    htm::Shared<std::uint64_t> a, b;
  };
  Pair p;
  std::uint64_t torn = 0;
  int flips = 0;
  bool was_snzi = false;
  sim::Simulator sim;
  sim.run(8, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) * 5 + 2);
    for (int phase = 0; phase < 6; ++phase) {
      const bool long_phase = phase % 2 == 1;
      for (int i = 0; i < 40; ++i) {
        // tid 0 must read: it is the sampler driving the adaptation.
        if (tid % 2 == 1) {
          lock.write(1, [&] {
            const std::uint64_t v = p.a.load() + 1;
            p.a.store(v);
            platform::advance(rng.next_below(200));
            p.b.store(v);
          });
        } else {
          lock.read(0, [&] {
            const std::uint64_t a = p.a.load();
            // Long phases run at twice the flip threshold.
            platform::advance(long_phase ? 2 * AdaptiveTracker::kThresholdCycles
                                         : rng.next_below(200));
            if (p.b.load() != a) ++torn;
          });
        }
        platform::advance(rng.next_below(100));
        if (tid == 0 && lock.tracking_with_snzi() != was_snzi) {
          was_snzi = !was_snzi;
          ++flips;
        }
      }
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(p.a.raw_load(), p.b.raw_load());
  EXPECT_GE(flips, 2);  // the workload really did flip modes
}

TEST(AdaptiveTracking, WriterSeesReaderDuringTransition) {
  // A long reader registered under flags keeps the transition window open;
  // a writer in that window must still abort on it (it checks both
  // structures).
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  // The first sample is adopted as the estimate, so the sampler's first
  // long read flips the mode.
  SpRWLock lock{adaptive_config(3)};
  Cell x;
  std::uint64_t seen_mid_read = ~0ULL;
  sim::Simulator sim;
  sim.run(3, [&](int tid) {
    if (tid == 1) {
      // Long reader (registers under flags; while it runs, tid 0 samples a
      // long read and flips the mode to SNZI, but cannot finish the
      // transition until this reader drains).
      platform::advance(100);
      lock.read(0, [&] {
        platform::advance(300'000);
        seen_mid_read = x.v.load();
      });
    } else if (tid == 0) {
      // Sampler: one long read flips the desired mode.
      platform::advance(5'000);
      lock.read(0, [&] { platform::advance(150'000); });
    } else {
      // Writer mid-transition: must not commit while reader 1 is active.
      platform::advance(200'000);
      lock.write(1, [&] { x.v.store(1); });
    }
  });
  EXPECT_EQ(seen_mid_read, 0u);  // writer publication waited for the reader
  EXPECT_EQ(x.v.raw_load(), 1u);
}

}  // namespace
}  // namespace sprwl::core
