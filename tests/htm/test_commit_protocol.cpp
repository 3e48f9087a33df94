// The decentralized commit protocol: per-line versioned locks must let
// disjoint commits and nontx publishes proceed in parallel, while
// preserving the strong-isolation guarantee the SpRWL algorithm is built
// on — a reader that flags itself either aborts every writer that read the
// flag, or observes the full effects of writers that validated first (the
// publish drain).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/costs.h"
#include "common/platform.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"

namespace sprwl::htm {
namespace {

struct alignas(64) Cell {
  Shared<std::uint64_t> v;
};

EngineConfig engine_config(int max_threads = 16) {
  EngineConfig cfg;
  cfg.max_threads = max_threads;
  return cfg;
}

// Virtual time for `nthreads` fibers each committing `per_thread` update
// transactions to their own cache line.
std::uint64_t disjoint_commit_time(int nthreads, int per_thread) {
  Engine engine{engine_config()};
  EngineScope scope(engine);
  std::vector<Cell> cells(static_cast<std::size_t>(nthreads));
  sim::Simulator sim;
  sim.run(nthreads, [&](int tid) {
    auto& mine = cells[static_cast<std::size_t>(tid)].v;
    for (int i = 0; i < per_thread; ++i) {
      const TxStatus st =
          engine.try_transaction([&] { mine.store(mine.load() + 1); });
      ASSERT_TRUE(st.committed());
    }
  });
  for (auto& c : cells)
    EXPECT_EQ(c.v.raw_load(), static_cast<std::uint64_t>(per_thread));
  return sim.final_time();
}

TEST(CommitProtocol, DisjointCommitsDoNotSerialize) {
  const std::uint64_t t1 = disjoint_commit_time(1, 200);
  const std::uint64_t t8 = disjoint_commit_time(8, 200);
  // Eight writers on eight disjoint lines never touch a common word: each
  // fiber's clock advances as if it ran alone.
  EXPECT_LE(t8, t1 + t1 / 10);
}

// Virtual time for `nthreads` fibers each performing `per_thread`
// strong-isolation stores to their own cache line (the SpRWL reader
// entry/exit pattern with unpacked flags).
std::uint64_t disjoint_nontx_time(int nthreads, int per_thread) {
  Engine engine{engine_config()};
  EngineScope scope(engine);
  std::vector<Cell> cells(static_cast<std::size_t>(nthreads));
  sim::Simulator sim;
  sim.run(nthreads, [&](int tid) {
    auto& mine = cells[static_cast<std::size_t>(tid)].v;
    for (int i = 0; i < per_thread; ++i) mine.store(static_cast<std::uint64_t>(i));
  });
  return sim.final_time();
}

TEST(CommitProtocol, DisjointNonTxStoresDoNotSerialize) {
  const std::uint64_t t1 = disjoint_nontx_time(1, 400);
  const std::uint64_t t8 = disjoint_nontx_time(8, 400);
  EXPECT_LE(t8, t1 + t1 / 10);
}

TEST(CommitProtocol, FlagBumpDuringWriteBackWindowDrainsTheCommit) {
  // Deterministic reproduction of the one interleaving the publish drain
  // exists for: a writer validates its read set (flag still clear), then a
  // reader flags itself *inside* the writer's write-back window. The
  // reader's store must not return until the commit is fully published, so
  // the flagged reader observes every one of its writes.
  Engine engine{engine_config()};
  EngineScope scope(engine);
  Cell flag;
  std::vector<Cell> data(100);
  sim::Simulator sim;
  TxStatus writer_status;
  std::uint64_t seen_min = ~0ULL, seen_max = 0;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      // The writer validates at ~t=1150 (tx_begin + flag load + 100
      // buffered stores + tx_commit) and its write-back window runs for
      // 100 lines * line_publish cycles after that.
      writer_status = engine.try_transaction([&] {
        if (flag.v.load() != 0) engine.abort_tx(1);
        for (auto& c : data) c.v.store(1);
      });
    } else {
      platform::advance(1800);  // bump lands mid-window: after validation
      flag.v.store(1);  // lands inside the writer's write-back window
      for (auto& c : data) {
        const std::uint64_t v = c.v.load();  // uninstrumented reads
        seen_min = v < seen_min ? v : seen_min;
        seen_max = v > seen_max ? v : seen_max;
      }
    }
  });
  ASSERT_TRUE(writer_status.committed());
  // The flagged reader saw the whole commit, not a stale or partial view.
  EXPECT_EQ(seen_min, 1u);
  EXPECT_EQ(seen_max, 1u);
  EXPECT_GE(engine.stats().publish_drains, 1u);
}

TEST(CommitProtocol, StrongIsolationStressSim) {
  // One writer transfers (D1, D2) in lockstep; flagged readers must always
  // observe D1 == D2 and values that never go backwards: every writer that
  // validated before the flag bump is drained, every later one aborts.
  Engine engine{engine_config()};
  EngineScope scope(engine);
  constexpr int kReaders = 3;
  Cell flags[kReaders];
  Cell d1, d2;
  sim::Simulator sim;
  int violations = 0;
  sim.run(1 + kReaders, [&](int tid) {
    if (tid == 0) {
      for (int i = 0; i < 300; ++i) {
        engine.try_transaction([&] {
          for (auto& f : flags)
            if (f.v.load() != 0) engine.abort_tx(7);
          const std::uint64_t a = d1.v.load();
          const std::uint64_t b = d2.v.load();
          d1.v.store(a + 1);
          d2.v.store(b + 1);
        });
        platform::advance(150);
      }
    } else {
      std::uint64_t last = 0;
      auto& flag = flags[tid - 1].v;
      for (int i = 0; i < 200; ++i) {
        flag.store(1);
        const std::uint64_t a = d1.v.load();
        const std::uint64_t b = d2.v.load();
        if (a != b || a < last) ++violations;
        last = a;
        flag.store(0);
        platform::advance(90 + 37 * tid);
      }
    }
  });
  EXPECT_EQ(violations, 0);
}

TEST(CommitProtocolRealThreads, StrongIsolationStress) {
  // Same invariant on real threads: the lock-free nontx publish and the
  // per-line commit path race for real here (and under TSan in CI). A
  // missing drain shows up as a torn (D1 != D2) or backwards view.
  Engine engine{engine_config(4)};
  EngineScope scope(engine);
  constexpr int kReaders = 3;
  Cell flags[kReaders];
  Cell d1, d2;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  sim::run_real_threads(1 + kReaders, [&](int tid) {
    if (tid == 0) {
      for (int i = 0; i < 4000; ++i) {
        engine.try_transaction([&] {
          for (auto& f : flags)
            if (f.v.load() != 0) engine.abort_tx(7);
          const std::uint64_t a = d1.v.load();
          const std::uint64_t b = d2.v.load();
          d1.v.store(a + 1);
          d2.v.store(b + 1);
        });
      }
      stop.store(true, std::memory_order_release);
    } else {
      std::uint64_t last = 0;
      auto& flag = flags[tid - 1].v;
      while (!stop.load(std::memory_order_acquire)) {
        flag.store(1);
        const std::uint64_t a = d1.v.load();
        const std::uint64_t b = d2.v.load();
        if (a != b || a < last) violations.fetch_add(1);
        last = a;
        flag.store(0);
      }
    }
  });
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(d1.v.raw_load(), d2.v.raw_load());
}

TEST(CommitProtocolRealThreads, DisjointCommitsAllSucceed) {
  // Sorted per-line acquisition must stay deadlock- and livelock-free with
  // overlapping write sets on real threads.
  Engine engine{engine_config(4)};
  EngineScope scope(engine);
  std::vector<Cell> cells(16);
  sim::run_real_threads(4, [&](int tid) {
    for (int i = 0; i < 3000; ++i) {
      // Each transaction writes its own line plus a rotating shared one.
      const std::size_t shared_idx =
          static_cast<std::size_t>((tid + i) % 8) + 8;
      engine.try_transaction([&] {
        auto& mine = cells[static_cast<std::size_t>(tid)].v;
        mine.store(mine.load() + 1);
        auto& other = cells[shared_idx].v;
        other.store(other.load() + 1);
      });
    }
  });
  // No assertion on totals (conflicting attempts abort and are not
  // retried); the test is that every thread terminates and the engine
  // kept its bookkeeping intact.
  std::uint64_t sum = 0;
  for (auto& c : cells) sum += c.v.raw_load();
  const EngineStats s = engine.stats();
  EXPECT_EQ(sum, 2 * s.commits_htm);
}

TEST(CommitProtocol, FailedNonTxCasIsInvisibleToTransactions) {
  // Regression: a failing nontx_cas used to take the commit lock; it must
  // now be a plain load — no version bump, so a live transaction that read
  // the same line commits untouched.
  Engine engine{engine_config()};
  EngineScope scope(engine);
  Cell x;
  x.v.raw_store(5);
  sim::Simulator sim;
  TxStatus status;
  bool cas_result = true;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      status = engine.try_transaction([&] {
        (void)x.v.load();
        platform::advance(10000);  // overlap with the failing CAS
      });
    } else {
      platform::advance(2000);
      cas_result = x.v.cas(7, 9);  // mismatch: 5 != 7
    }
  });
  EXPECT_FALSE(cas_result);
  EXPECT_TRUE(status.committed());
  EXPECT_EQ(x.v.raw_load(), 5u);
  EXPECT_EQ(engine.stats().aborts_conflict, 0u);
}

TEST(CommitProtocol, SuccessfulNonTxCasStillAbortsConflictingTransaction) {
  Engine engine{engine_config()};
  EngineScope scope(engine);
  Cell x;
  x.v.raw_store(5);
  sim::Simulator sim;
  TxStatus status;
  bool cas_result = false;
  sim.run(2, [&](int tid) {
    if (tid == 0) {
      status = engine.try_transaction([&] {
        (void)x.v.load();
        platform::advance(10000);
        (void)x.v.load();  // must observe the invalidation
      });
    } else {
      platform::advance(2000);
      cas_result = x.v.cas(5, 9);
    }
  });
  EXPECT_TRUE(cas_result);
  EXPECT_FALSE(status.committed());
  EXPECT_EQ(status.cause, AbortCause::kConflict);
  EXPECT_EQ(x.v.raw_load(), 9u);
}

TEST(CommitProtocol, ContentionStatsAreReported) {
  // Two committers hammering one line: the loser's acquisition retries and
  // the nontx publishes' contended rounds must surface in EngineStats.
  Engine engine{engine_config()};
  EngineScope scope(engine);
  Cell hot;
  sim::Simulator sim;
  sim.run(4, [&](int tid) {
    for (int i = 0; i < 100; ++i) {
      if (tid % 2 == 0) {
        engine.try_transaction([&] { hot.v.store(hot.v.load() + 1); });
      } else {
        hot.v.store(static_cast<std::uint64_t>(i));
      }
      platform::advance(20 + 13 * tid);
    }
  });
  const EngineStats s = engine.stats();
  // The workload forces same-line publish windows to overlap; at least one
  // of the contention counters must have fired, and the reset clears them.
  EXPECT_GT(s.commit_line_retries + s.nontx_line_retries + s.publish_drains,
            0u);
  engine.reset_stats();
  const EngineStats z = engine.stats();
  EXPECT_EQ(z.commit_line_retries, 0u);
  EXPECT_EQ(z.nontx_line_retries, 0u);
  EXPECT_EQ(z.publish_drains, 0u);
}

}  // namespace
}  // namespace sprwl::htm
