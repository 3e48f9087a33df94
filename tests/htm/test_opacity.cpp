// Property tests for opacity: under randomized concurrent transactions and
// strong-isolation stores, no transaction — committed OR live — ever
// observes an inconsistent snapshot. This is the property that lets the
// emulator run real data-structure code inside transactions without
// crashing, exactly like hardware transactions.
#include <gtest/gtest.h>

#include <atomic>
#include <tuple>
#include <vector>

#include "common/platform.h"
#include "common/rng.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::htm {
namespace {

struct alignas(64) Slot {
  Shared<std::int64_t> v;
};

// Parameters: (threads, cells, spurious_abort_rate, table_bits)
using Params = std::tuple<int, int, double, int>;

class OpacityProperty : public ::testing::TestWithParam<Params> {};

TEST_P(OpacityProperty, InvariantNeverObservedBroken) {
  const auto [threads, ncells, spurious, table_bits] = GetParam();
  EngineConfig cfg;
  cfg.spurious_abort_rate = spurious;
  cfg.table_bits = table_bits;
  cfg.capacity = kUnbounded;
  Engine engine(cfg);
  EngineScope scope(engine);

  // Invariant: sum over all cells == 0. Every writer moves value between
  // two random cells atomically; every reader sums everything.
  std::vector<Slot> cells(static_cast<std::size_t>(ncells));
  sim::Simulator sim;
  std::int64_t violations = 0;
  std::int64_t committed_writes = 0;

  sim.run(threads, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) * 7919 + 13);
    for (int op = 0; op < 300; ++op) {
      if (rng.next_bool(0.5)) {
        const auto i = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(ncells)));
        auto j = static_cast<std::size_t>(rng.next_below(static_cast<std::uint64_t>(ncells)));
        if (j == i) j = (j + 1) % static_cast<std::size_t>(ncells);
        const auto amount = static_cast<std::int64_t>(rng.next_below(100));
        const TxStatus st = engine.try_transaction([&] {
          const std::int64_t a = cells[i].v.load();
          platform::advance(rng.next_below(500));
          const std::int64_t b = cells[j].v.load();
          cells[i].v.store(a - amount);
          cells[j].v.store(b + amount);
        });
        committed_writes += st.committed();
      } else {
        std::int64_t sum = 0;
        bool complete = false;
        const TxStatus st = engine.try_transaction([&] {
          sum = 0;
          for (auto& c : cells) {
            sum += c.v.load();
            if (rng.next_bool(0.1)) platform::advance(rng.next_below(200));
          }
          complete = true;
        });
        // Opacity: even while running, every snapshot read so far was
        // consistent; if the body ran to completion the sum must be 0
        // regardless of whether the commit later succeeded.
        if (complete && sum != 0) ++violations;
        (void)st;
      }
      platform::advance(rng.next_below(100));
    }
  });

  EXPECT_EQ(violations, 0);
  EXPECT_GT(committed_writes, 0);
  // Quiescent check: the invariant holds on raw memory.
  std::int64_t final_sum = 0;
  for (auto& c : cells) final_sum += c.v.raw_load();
  EXPECT_EQ(final_sum, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpacityProperty,
    ::testing::Values(Params{2, 4, 0.0, 20}, Params{4, 8, 0.0, 20},
                      Params{8, 16, 0.0, 20}, Params{4, 8, 0.001, 20},
                      Params{8, 8, 0.0005, 20}, Params{4, 8, 0.0, 8},
                      Params{8, 16, 0.0, 6}, Params{16, 32, 0.0, 20},
                      Params{16, 8, 0.0002, 10}));

// The same property must hold under real preemptive threads (slow host:
// keep it small). This exercises the lock-bit publish protocol for real.
TEST(OpacityRealThreads, InvariantHolds) {
  EngineConfig cfg;
  cfg.capacity = kUnbounded;
  Engine engine(cfg);
  EngineScope scope(engine);
  std::vector<Slot> cells(8);
  std::atomic<std::int64_t> violations{0};
  sim::run_real_threads(4, [&](int tid) {
    Rng rng(static_cast<std::uint64_t>(tid) + 1);
    for (int op = 0; op < 4000; ++op) {
      if (rng.next_bool(0.5)) {
        const auto i = static_cast<std::size_t>(rng.next_below(8));
        const auto j = (i + 1 + static_cast<std::size_t>(rng.next_below(7))) % 8;
        const auto amount = static_cast<std::int64_t>(rng.next_below(10));
        engine.try_transaction([&] {
          const std::int64_t a = cells[i].v.load();
          const std::int64_t b = cells[j].v.load();
          cells[i].v.store(a - amount);
          cells[j].v.store(b + amount);
        });
      } else {
        std::int64_t sum = 0;
        bool complete = false;
        engine.try_transaction([&] {
          sum = 0;
          for (auto& c : cells) sum += c.v.load();
          complete = true;
        });
        if (complete && sum != 0) violations.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);
  std::int64_t final_sum = 0;
  for (auto& c : cells) final_sum += c.v.raw_load();
  EXPECT_EQ(final_sum, 0);
}

// A read-only transaction never validates at commit (it has nothing to
// publish), so its snapshot rests on the read-set extension alone, and that
// extension must validate the line whose read triggered it. Otherwise a
// writer that overwrites that line between the stable read and the
// extension's clock read gets a version at or below the new rv, and the
// reader then takes that writer's other line without extending again while
// it keeps the stale value. The simulated sweep above cannot reach this
// window: nothing charges virtual time between the stable read and the
// extension, so there is no decision point there and no other fiber runs.
// Three real writer threads on two lines open it tens of times per
// 100,000 reads when the extension skips that line.
TEST(OpacityRealThreads, ExtensionValidatesTheLineItRead) {
  EngineConfig cfg;
  cfg.capacity = kUnbounded;
  Engine engine(cfg);
  EngineScope scope(engine);
  std::vector<Slot> cells(2);
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> torn{0};
  constexpr int kReads = 100'000;
  sim::run_real_threads(4, [&](int tid) {
    if (tid == 0) {
      for (int r = 0; r < kReads; ++r) {
        std::int64_t sum = 0;
        const TxStatus st = engine.try_transaction(
            [&] { sum = cells[0].v.load() + cells[1].v.load(); });
        if (st.committed() && sum != 0) torn.fetch_add(1);
      }
      done.store(true);
      return;
    }
    const std::int64_t unit = tid % 2 == 0 ? 1 : -1;
    while (!done.load()) {
      engine.try_transaction([&] {
        const std::int64_t a = cells[0].v.load();
        const std::int64_t b = cells[1].v.load();
        cells[0].v.store(a - unit);
        cells[1].v.store(b + unit);
      });
    }
  });
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(cells[0].v.raw_load() + cells[1].v.raw_load(), 0);
}

}  // namespace
}  // namespace sprwl::htm
