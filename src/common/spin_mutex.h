// Test-and-test-and-set spin mutex, virtual-time aware.
//
// Used as the internal mutex of the pessimistic lock baselines and as a
// building block elsewhere. Spinning goes through platform::pause() so that
// under simulation the waiting thread's virtual clock advances and other
// fibers get to run (a fiber never blocks the scheduler).
#pragma once

#include <atomic>

#include "common/costs.h"
#include "common/platform.h"

namespace sprwl {

class SpinMutex {
 public:
  void lock() { try_lock_until(kNone); }

  bool try_lock() {
    platform::advance(g_costs.cas);
    if (locked_.exchange(true, std::memory_order_acquire)) return false;
    charge_acquisition();
    return true;
  }

  /// lock() with an absolute virtual-time deadline (~0 = none). Returns
  /// false with the waiter count restored if the deadline passes before
  /// the mutex is acquired.
  bool try_lock_until(std::uint64_t deadline) {
    if (try_lock()) return true;
    if (expired(deadline)) return false;
    waiters_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      while (locked_.load(std::memory_order_relaxed)) {
        if (expired(deadline)) {
          waiters_.fetch_sub(1, std::memory_order_relaxed);
          return false;
        }
        platform::pause();
      }
      if (!locked_.exchange(true, std::memory_order_acquire)) break;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    charge_acquisition();
    return true;
  }

  void unlock() {
    platform::advance(g_costs.store);
    locked_.store(false, std::memory_order_release);
  }

  bool is_locked() const noexcept {
    return locked_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  static bool expired(std::uint64_t deadline) noexcept {
    return deadline != kNone && platform::now() >= deadline;
  }

  /// Models the coherence cost of a contended handoff: the winner pays
  /// proportionally to the number of threads spinning on the line.
  void charge_acquisition() {
    const int w = waiters_.load(std::memory_order_relaxed);
    if (w > 0) {
      platform::advance(static_cast<std::uint64_t>(w) * g_costs.contention_unit);
    }
  }

  std::atomic<bool> locked_{false};
  std::atomic<int> waiters_{0};
};

}  // namespace sprwl
