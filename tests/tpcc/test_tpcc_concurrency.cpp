// TPC-C under concurrency: the full driver running against every lock
// family, with the clause 3.3.2 consistency conditions checked at
// quiescence. This is the integration test behind the Fig. 7 bench.
#include "tpcc/tpcc_driver.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "../support/run_digest.h"
#include "core/sprwl.h"
#include "locks/brlock.h"
#include "locks/posix_rwlock.h"
#include "locks/rwle.h"
#include "locks/tle.h"

namespace sprwl::tpcc {
namespace {

Scale test_scale(int threads) {
  Scale s;
  s.warehouses = threads;
  s.districts_per_warehouse = 4;
  s.customers_per_district = 60;
  s.items = 1000;
  // Large ring: the balance-drift invariant needs no delivered order to be
  // overwritten during the run.
  s.order_ring = 512;
  s.max_threads = threads;
  s.history_per_thread = 4096;
  return s;
}

TpccDriverConfig driver_config(int threads) {
  TpccDriverConfig cfg;
  cfg.threads = threads;
  cfg.warmup_cycles = 200'000;
  cfg.measure_cycles = 3'000'000;
  cfg.seed = 77;
  return cfg;
}

template <class Lock>
void run_and_check(Lock& lock, int threads) {
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::kBroadwell;
  ecfg.max_threads = threads;
  htm::Engine engine(ecfg);
  Database db(test_scale(threads));
  db.populate();
  sim::Simulator sim;
  const workloads::RunResult r = run_tpcc(sim, engine, lock, db, driver_config(threads));

  EXPECT_GT(r.committed(), 100u);
  EXPECT_GT(r.ops[kCsPayment], r.ops[kCsDelivery]);  // mix sanity: 43% vs 4%
  EXPECT_GT(r.ops[kCsStockLevel], r.ops[kCsOrderStatus]);
  EXPECT_TRUE(db.check_warehouse_ytd());
  EXPECT_TRUE(db.check_next_order_id());
  EXPECT_TRUE(db.check_new_order_queue());
  EXPECT_TRUE(db.check_order_line_counts());
  EXPECT_EQ(db.raw_total_balance_drift(), 0);
}

TEST(TpccConcurrency, UnderSpRWL) {
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, 4)};
  run_and_check(lock, 4);
}

TEST(TpccConcurrency, UnderSpRWLWithSnzi) {
  core::Config cfg = core::Config::variant(core::SchedulingVariant::kFull, 4);
  cfg.tracking = core::Tracking::kSnzi;
  core::SpRWLock lock{cfg};
  run_and_check(lock, 4);
}

TEST(TpccConcurrency, UnderTLE) {
  locks::TLELock::Config cfg;
  cfg.max_threads = 4;
  locks::TLELock lock{cfg};
  run_and_check(lock, 4);
}

TEST(TpccConcurrency, UnderRWLE) {
  locks::RWLELock::Config cfg;
  cfg.max_threads = 4;
  locks::RWLELock lock{cfg};
  run_and_check(lock, 4);
}

TEST(TpccConcurrency, UnderPosixRWLock) {
  locks::PosixRWLock lock{4};
  run_and_check(lock, 4);
}

TEST(TpccConcurrency, UnderBRLock) {
  locks::BRLock lock{4};
  run_and_check(lock, 4);
}

TEST(TpccConcurrency, SpRWLCommitsUpdatesInHardware) {
  // The headline behaviour behind Fig. 7: a large share of update
  // transactions commits in HTM while long readers stay uninstrumented.
  const int threads = 4;
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, threads)};
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::kBroadwell;
  htm::Engine engine(ecfg);
  Database db(test_scale(threads));
  db.populate();
  sim::Simulator sim;
  const workloads::RunResult r = run_tpcc(sim, engine, lock, db, driver_config(threads));
  const auto& w = r.lock_stats.writes;
  EXPECT_GT(w.htm, w.gl);  // most updates elided
  EXPECT_GT(r.lock_stats.reads.unins + r.lock_stats.reads.htm, 0u);
  EXPECT_EQ(r.lock_stats.reads.gl, 0u);  // readers never serialize
}

TEST(TpccConcurrency, ReadersObserveConsistentMoney) {
  // Readers repeatedly snapshot W_YTD vs sum(D_YTD) of one warehouse while
  // payments hammer it; under SpRWL they must always agree... observed
  // through the read critical section (C1 as a *live* invariant).
  const int threads = 4;
  Scale s = test_scale(threads);
  Database db(s);
  db.populate();
  htm::EngineConfig ecfg;
  ecfg.max_threads = threads;
  htm::Engine engine(ecfg);
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, threads)};
  std::uint64_t violations = 0;
  sim::Simulator sim;
  sim.run(threads, [&](int tid) {
    htm::EngineScope scope(engine);
    Rng rng(static_cast<std::uint64_t>(tid) + 5);
    for (int i = 0; i < 150; ++i) {
      if (tid == 0) {
        // Reader: C1 snapshot through the public transactions is not
        // directly exposed; use payment+order_status pairs instead —
        // balance must move by exactly the paid amount.
        PaymentInput pin = db.make_payment_input(rng, 1);
        pin.by_last_name = false;
        pin.c_w_id = pin.w_id = 1;
        pin.c_d_id = pin.d_id = 1;
        OrderStatusInput os{};
        os.w_id = 1;
        os.d_id = 1;
        os.c_id = pin.c_id;
        std::int64_t before = 0, after = 0;
        lock.read(kCsOrderStatus, [&] { before = db.order_status(os).balance_cents; });
        std::int64_t paid = 0;
        lock.write(kCsPayment, [&] { paid = db.payment(pin).balance_cents; });
        lock.read(kCsOrderStatus, [&] { after = db.order_status(os).balance_cents; });
        if (after > before) ++violations;  // balance can only fall (no delivery here)
      } else {
        // Writers: payments to other districts of warehouse 1.
        PaymentInput pin = db.make_payment_input(rng, 1);
        pin.by_last_name = false;
        pin.c_w_id = pin.w_id = 1;
        pin.c_d_id = pin.d_id = 2 + (tid - 1) % 3;
        lock.write(kCsPayment, [&] { db.payment(pin); });
      }
      platform::advance(rng.next_below(200));
    }
  });
  EXPECT_EQ(violations, 0u);
  EXPECT_TRUE(db.check_warehouse_ytd());
}

// Virtual time must not follow the memory layout. Every TPC-C object or
// array that holds Shared cells starts a cache line (the index roots, the
// warehouse and customer rows), so neither where the Database sits inside its
// enclosing object nor what the heap allocated before it changes which
// lines a transaction touches. The same short mix, with the Database at
// four 16-byte steps inside its enclosing object and after two heap pads,
// must replay to the cycle.
template <std::size_t kLead>
struct Enclosed {
  explicit Enclosed(const Scale& s) : db(s) {}
  std::array<char, kLead> lead{};
  Database db;
};

template <std::size_t kLead>
workloads::RunResult run_enclosed(std::size_t pad_bytes) {
  const std::vector<char> pad(pad_bytes, 1);  // live for the whole run
  const int threads = 4;
  htm::EngineConfig ecfg;
  ecfg.capacity = htm::kBroadwell;
  ecfg.max_threads = threads;
  htm::Engine engine(ecfg);
  auto enclosed = std::make_unique<Enclosed<kLead>>(test_scale(threads));
  enclosed->db.populate();
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, threads)};
  TpccDriverConfig dc = driver_config(threads);
  dc.measure_cycles = 1'000'000;
  sim::Simulator sim;
  workloads::RunResult r = run_tpcc(sim, engine, lock, enclosed->db, dc);
  EXPECT_EQ(pad.size(), pad_bytes);
  EXPECT_EQ(enclosed->db.raw_total_balance_drift(), 0);
  return r;
}

TEST(TpccConcurrency, VirtualTimeIsIndependentOfMemoryLayout) {
  const std::vector<workloads::RunResult> runs{
      run_enclosed<16>(0),  run_enclosed<32>(0),    run_enclosed<48>(0),
      run_enclosed<64>(0),  run_enclosed<16>(24),   run_enclosed<16>(3000),
  };
  const workloads::RunResult& a = runs.front();
  EXPECT_GT(a.committed(), 100u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const workloads::RunResult& b = runs[i];
    SCOPED_TRACE(i);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.read_latency.mean(), b.read_latency.mean());
    EXPECT_EQ(a.write_latency.mean(), b.write_latency.mean());
    EXPECT_EQ(a.reader_aborts, b.reader_aborts);
    EXPECT_EQ(a.lock_stats.reads.unins, b.lock_stats.reads.unins);
    EXPECT_EQ(a.lock_stats.reads.htm, b.lock_stats.reads.htm);
    EXPECT_EQ(a.lock_stats.writes.htm, b.lock_stats.writes.htm);
    EXPECT_EQ(a.lock_stats.writes.gl, b.lock_stats.writes.gl);
    EXPECT_EQ(a.lock_stats.aborts.total(), b.lock_stats.aborts.total());
    EXPECT_EQ(a.engine_stats.aborts_capacity, b.engine_stats.aborts_capacity);
    EXPECT_EQ(a.engine_stats.aborts_conflict, b.engine_stats.aborts_conflict);
  }
}

// Pinned results: one digest over every RunResult field of the mix above
// (per-type counts, both latency histograms, lock, engine and simulator
// stats, reader aborts, final time), taken before the three drivers shared
// one closed loop.
TEST(TpccConcurrency, SpRWLRunMatchesPinnedDigest) {
  EXPECT_EQ(testutil::run_digest(run_enclosed<16>(0)), 0x35e5af5c28fe5e12ULL);
}

}  // namespace
}  // namespace sprwl::tpcc
