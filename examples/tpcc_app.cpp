// In-memory order-processing application: the full TPC-C workload running
// against the library's Database with one global SpRWL, as in the paper's
// Section 4.2 evaluation.
//
//   build/examples/tpcc_app
//
// Prints per-transaction-type throughput, the commit-mode breakdown, and
// verifies the TPC-C consistency conditions afterwards.
#include <cstdio>

#include "core/sprwl.h"
#include "htm/engine.h"
#include "sim/simulator.h"
#include "tpcc/tpcc_driver.h"

int main() {
  using namespace sprwl;

  constexpr int kThreads = 8;

  tpcc::Scale scale;
  scale.warehouses = kThreads;
  scale.customers_per_district = 120;
  scale.items = 2000;
  scale.order_ring = 128;
  scale.max_threads = kThreads;
  tpcc::Database db(scale);
  db.populate();

  htm::Engine engine{htm::EngineConfig{}};
  core::SpRWLock lock{core::Config::variant(core::SchedulingVariant::kFull, kThreads)};

  tpcc::TpccDriverConfig dc;
  dc.threads = kThreads;
  dc.warmup_cycles = 300'000;
  dc.measure_cycles = 5'000'000;
  sim::Simulator sim;
  const workloads::RunResult r = run_tpcc(sim, engine, lock, db, dc);
  const auto count = [&r](tpcc::CsId id) {
    return static_cast<unsigned long long>(r.ops[id]);
  };

  std::printf("TPC-C on %d warehouses / %d threads under SpRWL\n",
              scale.warehouses, kThreads);
  std::printf("  throughput    : %.3e tx/s\n", r.throughput_tx_s());
  std::printf("  new-order     : %llu\n", count(tpcc::kCsNewOrder));
  std::printf("  payment       : %llu\n", count(tpcc::kCsPayment));
  std::printf("  order-status  : %llu\n", count(tpcc::kCsOrderStatus));
  std::printf("  delivery      : %llu\n", count(tpcc::kCsDelivery));
  std::printf("  stock-level   : %llu\n", count(tpcc::kCsStockLevel));
  const auto& w = r.lock_stats.writes;
  const auto& rd = r.lock_stats.reads;
  std::printf("  updates       : %.1f%% HTM, %.1f%% global lock\n",
              100.0 * static_cast<double>(w.htm) / static_cast<double>(w.total()),
              100.0 * static_cast<double>(w.gl) / static_cast<double>(w.total()));
  std::printf("  read-only     : %.1f%% HTM, %.1f%% uninstrumented\n",
              100.0 * static_cast<double>(rd.htm) / static_cast<double>(rd.total()),
              100.0 * static_cast<double>(rd.unins) / static_cast<double>(rd.total()));
  std::printf("  mean latency  : reads %.0f cycles, writes %.0f cycles\n",
              r.read_latency.mean(), r.write_latency.mean());

  const bool c1 = db.check_warehouse_ytd();
  const bool c2 = db.check_next_order_id();
  const bool c3 = db.check_new_order_queue();
  const bool c4 = db.check_order_line_counts();
  std::printf("  consistency   : C1 %s, C2 %s, C3 %s, C4 %s\n", c1 ? "ok" : "FAIL",
              c2 ? "ok" : "FAIL", c3 ? "ok" : "FAIL", c4 ? "ok" : "FAIL");
  return (c1 && c2 && c3 && c4) ? 0 : 1;
}
