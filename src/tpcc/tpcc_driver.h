// TPC-C benchmark driver (the paper's Section 4.2 adaptation): every
// transaction runs as a critical section of ONE process-wide read-write
// lock — Order-Status and Stock-Level as read sections, New-Order, Payment
// and Delivery as write sections. Transaction inputs are generated outside
// the critical section (HTM bodies may re-execute and must be idempotent
// w.r.t. their inputs).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "htm/engine.h"
#include "sim/simulator.h"
#include "tpcc/tpcc.h"
#include "workloads/closed_loop.h"

namespace sprwl::tpcc {

/// Critical-section ids (SpRWL keeps one duration estimate per id).
enum CsId : int {
  kCsNewOrder = 1,
  kCsPayment = 2,
  kCsOrderStatus = 3,
  kCsDelivery = 4,
  kCsStockLevel = 5,
};

/// The paper's mix: Stock-Level 31%, Delivery 4%, Order-Status 4%,
/// Payment 43%, New-Order the remaining 18%.
inline constexpr double kPStockLevel = 0.31;
inline constexpr double kPDelivery = 0.04;
inline constexpr double kPOrderStatus = 0.04;
inline constexpr double kPPayment = 0.43;

struct TpccDriverConfig {
  int threads = 4;
  std::uint64_t warmup_cycles = 1'000'000;
  std::uint64_t measure_cycles = 10'000'000;
  std::uint64_t seed = 1;
};

/// Runs the mix for cfg.measure_cycles of virtual time after a warmup. Each
/// fiber's home warehouse is tid % warehouses + 1. The result counts each
/// transaction type under its CsId in ops[]; reads are Order-Status plus
/// Stock-Level, writes New-Order, Payment and Delivery.
template <class Lock>
workloads::RunResult run_tpcc(sim::Simulator& sim, htm::Engine& engine,
                              Lock& lock, Database& db,
                              const TpccDriverConfig& cfg) {
  const int warehouses = db.scale().warehouses;
  return workloads::run_closed_loop(sim, engine, lock, cfg, [&](int tid) {
    return [&, home_w = tid % warehouses + 1,
            rng = Rng(cfg.seed * 0x2545F4914F6CDD1DULL +
                      static_cast<std::uint64_t>(tid))]() mutable
           -> workloads::Section {
      const double u = rng.next_double();
      if (u < kPStockLevel) {
        const StockLevelInput in = db.make_stock_level_input(rng, home_w);
        lock.read(kCsStockLevel, [&] { db.stock_level(in); });
        return {kCsStockLevel, false};
      }
      if (u < kPStockLevel + kPOrderStatus) {
        const OrderStatusInput in = db.make_order_status_input(rng, home_w);
        lock.read(kCsOrderStatus, [&] { db.order_status(in); });
        return {kCsOrderStatus, false};
      }
      if (u < kPStockLevel + kPOrderStatus + kPDelivery) {
        const DeliveryInput in = db.make_delivery_input(rng, home_w);
        lock.write(kCsDelivery, [&] { db.delivery(in); });
        return {kCsDelivery, true};
      }
      if (u < kPStockLevel + kPOrderStatus + kPDelivery + kPPayment) {
        const PaymentInput in = db.make_payment_input(rng, home_w);
        lock.write(kCsPayment, [&] { db.payment(in); });
        return {kCsPayment, true};
      }
      const NewOrderInput in = db.make_new_order_input(rng, home_w);
      lock.write(kCsNewOrder, [&] { db.new_order(in); });
      return {kCsNewOrder, true};
    };
  });
}

}  // namespace sprwl::tpcc
