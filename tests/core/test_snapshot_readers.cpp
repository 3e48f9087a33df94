// SpRWLock::read_snapshot (DESIGN.md §14): the third acquisition mode,
// taken whenever the installed engine retains versions. A snapshot reader
// pins the engine's version clock and registers NOTHING — no flag plane,
// no SNZI arrival, no bravo slot — so writers commit as if the reader did
// not exist; consistency comes from the multi-version lookup, not from
// mutual exclusion. Covers the no-registration invariant, writer
// invisibility, the SnapshotMiss fallback to a registered read, the SGL
// pin guard, graceful degradation on an engine without retention, and pin
// hygiene under fault injection (preemption mid-section) and exceptions.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/platform.h"
#include "core/sprwl.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::core {
namespace {

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

htm::EngineConfig engine_cfg(std::uint32_t retain) {
  htm::EngineConfig cfg;
  cfg.retain_versions = retain;
  cfg.table_bits = 12;
  return cfg;
}

Config snap_config(int threads) {
  Config cfg = Config::variant(SchedulingVariant::kFull, threads);
  cfg.reader_htm_first = false;  // exercise the snapshot path itself
  return cfg;
}

// The no-registration invariant, structurally: a lock that only ever
// serves snapshot readers never allocates its flag plane — the snapshot
// path touches no per-lock reader state at all.
TEST(SnapshotReaders, PureSnapshotReadsAllocateNoPlane) {
  htm::Engine engine{engine_cfg(4)};
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(4)};
  EXPECT_FALSE(lock.has_plane());
  Cell x;
  sim::Simulator sim;
  sim.run(4, [&](int) {
    for (int i = 0; i < 8; ++i) lock.read_snapshot(0, [&] { (void)x.v.load(); });
  });
  EXPECT_FALSE(lock.has_plane());
  EXPECT_EQ(lock.snapshot_read_count(), 32u);
  EXPECT_EQ(lock.snapshot_fallback_count(), 0u);
  EXPECT_EQ(lock.footprint_bytes(), sizeof(SpRWLock));
}

// Writer invisibility — the tentpole property. A snapshot reader parked in
// its section for a long interval never delays or aborts the writers that
// commit meanwhile, and still observes a consistent multi-cell view as of
// its pin.
TEST(SnapshotReaders, ParkedReaderNeverAbortsWriters) {
  htm::Engine engine{engine_cfg(8)};
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(2)};
  Cell a, b;
  std::vector<std::uint64_t> saw;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read_snapshot(0, [&] {
        saw.push_back(a.v.load());
        platform::advance(80'000);  // park with writers committing around us
        saw.push_back(b.v.load());
      });
    } else {
      platform::advance(5'000);  // arrive while the reader is parked
      for (int i = 0; i < 6; ++i) {
        lock.write(1, [&] {
          const std::uint64_t n = a.v.load() + 1;
          a.v.store(n);
          b.v.store(n);
        });
        platform::advance(2'000);
      }
    }
  });
  ASSERT_EQ(saw.size(), 2u);
  EXPECT_EQ(saw[0], saw[1]) << "snapshot view tore across writer commits";
  EXPECT_EQ(a.v.raw_load(), 6u) << "writers must all have committed";
  EXPECT_EQ(lock.snapshot_read_count(), 1u);
  // The writers' commit path found no registered readers to wait out: the
  // parked snapshot reader cost them nothing.
  EXPECT_EQ(lock.reader_abort_count(), 0u);
}

// Graceful degradation: without an engine that retains versions,
// read_snapshot() is a plain read() — the body runs exactly once and no
// snapshot counter moves.
TEST(SnapshotReaders, DegradesToPlainReadWithoutSupport) {
  htm::Engine engine{htm::EngineConfig{}};
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(2)};
  Cell x;
  int runs = 0;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    lock.read_snapshot(0, [&] {
      ++runs;
      (void)x.v.load();
    });
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(lock.snapshot_read_count(), 0u);
  EXPECT_EQ(lock.snapshot_fallback_count(), 0u);
}

// The bounded-ring escape hatch: a section so long (relative to
// retain_versions) that its pinned version is reclaimed mid-read throws
// SnapshotMiss and re-runs as a normal registered read — correct, counted,
// just no longer invisible.
TEST(SnapshotReaders, MissFallsBackToRegisteredRead) {
  htm::Engine engine{engine_cfg(2)};  // tiny ring: easy to overflow
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(2)};
  Cell x;
  int runs = 0;
  std::uint64_t last_seen = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read_snapshot(0, [&] {
        ++runs;
        platform::advance(60'000);  // let the writer churn the ring
        last_seen = x.v.load();
      });
    } else {
      platform::advance(5'000);
      for (int i = 1; i <= 5; ++i) {  // 5 publishes > ring of 2 with pin live
        lock.write(1, [&] { x.v.store(static_cast<std::uint64_t>(i) * 10); });
        platform::advance(1'000);
      }
    }
  });
  EXPECT_EQ(runs, 2) << "body must re-run on the fallback path";
  EXPECT_EQ(lock.snapshot_read_count(), 0u);
  EXPECT_EQ(lock.snapshot_fallback_count(), 1u);
  EXPECT_EQ(last_seen, 50u) << "the registered re-run reads current state";
  EXPECT_GE(engine.stats().version_overflows, 1u);
}

// The SGL pin guard: an SGL-fallback writer publishes each store of its
// section with its own write version, so a pin taken mid-section could
// otherwise observe a torn prefix. A profile with a 2-line write capacity
// forces every 4-cell writer onto the SGL; snapshot readers must still see
// all four cells agree.
TEST(SnapshotReaders, SglFallbackWritersAreNeverTorn) {
  htm::EngineConfig ec = engine_cfg(8);
  ec.capacity = htm::CapacityProfile{"tiny", 512, 2};
  htm::Engine engine{ec};
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(2)};
  constexpr int kCells = 4;
  std::vector<Cell> cells(kCells);
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    for (int op = 0; op < 10; ++op) {
      if (tid == 0) {
        lock.read_snapshot(0, [&] {
          const std::uint64_t a = cells[0].v.load();
          platform::advance(500);
          for (int c = 1; c < kCells; ++c) {
            if (cells[c].v.load() != a) ++torn;
          }
        });
      } else {
        lock.write(1, [&] {
          const std::uint64_t n = cells[0].v.load() + 1;
          for (int c = 0; c < kCells; ++c) cells[c].v.store(n);
        });
      }
      platform::advance(700 * static_cast<std::uint64_t>(tid) + 300);
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_GT(lock.stats().writes.gl, 0u) << "writers must have used the SGL";
  EXPECT_EQ(cells[0].v.raw_load(), 10u);
}

// Reclamation under fault injection, pin side: a reader preempted right
// after pinning (kReadEnter fires post-pin by design) holds its epoch
// across the whole descheduled interval — writers that commit meanwhile
// cannot reclaim past it, and the resumed reader still resolves at its pin.
TEST(SnapshotReaders, PreemptedReaderKeepsItsPin) {
  htm::Engine engine{engine_cfg(8)};
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(2)};
  Cell a, b;
  std::uint64_t saw_a = ~0ull, saw_b = ~0ull;
  sim::Simulator sim;
  fault::FaultPlan plan;
  plan.preempts.push_back(fault::PreemptSpec{
      SchedKind::kReadEnter, /*tid=*/0, /*not_before=*/0,
      /*duration=*/200'000, /*count=*/1});
  fault::FaultInjector inj(plan, &sim, &engine);
  fault::FaultScope fscope(inj);
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read_snapshot(0, [&] {
        saw_a = a.v.load();
        saw_b = b.v.load();
      });
    } else {
      platform::advance(10'000);  // inside the reader's preemption window
      for (int i = 1; i <= 4; ++i) {
        lock.write(1, [&] {
          a.v.store(static_cast<std::uint64_t>(i));
          b.v.store(static_cast<std::uint64_t>(i));
        });
      }
    }
  });
  EXPECT_EQ(inj.stats().preemptions, 1u);
  // The pin predates every write: the resumed reader sees the initial
  // state, proving the descheduled interval did not lose the epoch.
  EXPECT_EQ(saw_a, 0u);
  EXPECT_EQ(saw_b, 0u);
  EXPECT_EQ(lock.snapshot_read_count(), 1u);
  EXPECT_EQ(a.v.raw_load(), 4u);
}

// Reclamation under fault injection, unpin side: any unwind out of the
// section — here a plain exception from the body — must release the pin,
// or reclamation is silently wedged for the rest of the run.
TEST(SnapshotReaders, ExceptionOutOfBodyReleasesThePin) {
  htm::Engine engine{engine_cfg(2)};
  htm::EngineScope scope(engine);
  SpRWLock lock{snap_config(1)};
  Cell x;
  sim::Simulator sim;
  sim.run(1, [&](int) {
    try {
      lock.read_snapshot(0, [&]() -> void {
        (void)x.v.load();
        throw std::runtime_error("body failed");
      });
      FAIL() << "exception must propagate";
    } catch (const std::runtime_error&) {
    }
    EXPECT_FALSE(engine.in_snapshot()) << "pin leaked across the unwind";
    // With the pin gone the tiny ring reclaims freely: publishes far past
    // its depth cause no overflow.
    for (int i = 1; i <= 6; ++i) {
      lock.write(1, [&] { x.v.store(static_cast<std::uint64_t>(i)); });
    }
  });
  EXPECT_EQ(engine.stats().version_overflows, 0u);
  EXPECT_EQ(x.v.raw_load(), 6u);
}

// Composition with bravo bias: a snapshot reader does not occupy a bravo
// slot (nothing to drain), so a writer's revocation cost is independent of
// parked snapshot readers.
TEST(SnapshotReaders, ComposesWithBravoWithoutSlotOccupancy) {
  htm::Engine engine{engine_cfg(8)};
  htm::EngineScope scope(engine);
  Config cfg = snap_config(2);
  cfg.bravo_bias = true;
  bravo::ReaderTable::Config tc;
  tc.max_threads = 2;
  cfg.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
  SpRWLock lock{cfg};
  Cell a, b;
  std::uint64_t torn = 0;
  sim::Simulator sim;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      lock.read_snapshot(0, [&] {
        const std::uint64_t x = a.v.load();
        platform::advance(50'000);  // parked across the writer's revocation
        if (b.v.load() != x) ++torn;
      });
    } else {
      platform::advance(10'000);
      lock.write(1, [&] {
        a.v.store(1);
        b.v.store(1);
      });
    }
  });
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(lock.snapshot_read_count(), 1u);
  // The revocation drained an empty table: no slot was held by the
  // snapshot reader, so the writer did not wait out its 50k-cycle park.
  EXPECT_EQ(a.v.raw_load(), 1u);
  EXPECT_EQ(lock.bias_read_count(), 0u);
}

}  // namespace
}  // namespace sprwl::core
