// Big-Reader Lock (BRLock), after the Linux-kernel brlock the paper cites.
//
// A reader acquires only its own per-thread mutex (one uncontended CAS on a
// private cache line), so read-side cost is constant and contention-free.
// A writer acquires a global mutex (serializing writers) and then every
// per-thread mutex in order, making writes O(threads) — the classic
// read-biased trade-off the paper's evaluation shows collapsing once
// updates are frequent.
#pragma once

#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/platform.h"
#include "common/scope_exit.h"
#include "common/spin_mutex.h"
#include "locks/deadline.h"
#include "locks/stats.h"

namespace sprwl::locks {

class BRLock {
 public:
  explicit BRLock(int max_threads)
      : per_thread_(static_cast<std::size_t>(max_threads)), modes_(max_threads) {}

  template <class F>
  [[gnu::flatten]] void read(int /*cs_id*/, F&& f) {
    read_until(kNoDeadline, std::forward<F>(f));
  }

  template <class F>
  [[gnu::flatten]] void write(int /*cs_id*/, F&& f) {
    write_until(kNoDeadline, std::forward<F>(f));
  }

  template <class F>
  [[gnu::flatten]] AcquireResult try_read_for(int /*cs_id*/,
                                              std::uint64_t budget_cycles,
                                              F&& f) {
    return read_until(checked_deadline(budget_cycles), std::forward<F>(f));
  }

  template <class F>
  [[gnu::flatten]] AcquireResult try_write_for(int /*cs_id*/,
                                               std::uint64_t budget_cycles,
                                               F&& f) {
    return write_until(checked_deadline(budget_cycles), std::forward<F>(f));
  }

  LockStats stats() const { return modes_.snapshot(); }
  void reset_stats() { modes_.reset(); }
  static const char* name() noexcept { return "BRLock"; }

 private:
  /// The one read path (kNoDeadline = untimed): one mutex acquisition,
  /// nothing to unwind.
  template <class F>
  AcquireResult read_until(std::uint64_t deadline,
                                                  F&& f) {
    auto& mine = *per_thread_[static_cast<std::size_t>(platform::thread_id())];
    if (!mine.try_lock_until(deadline)) return AcquireResult::kTimeout;
    platform::sched_point(SchedKind::kReadEnter, this);
    {
      ScopeExit release([&] { mine.unlock(); });
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kReadExit, this);
    }
    modes_.record_read(CommitMode::kPessimistic);
    return AcquireResult::kAcquired;
  }

  /// The one write path: the O(threads) acquisition sweep can expire
  /// mid-way, in which case the already-held prefix is released in reverse
  /// (same order as the normal exit) along with the global mutex — a
  /// half-swept writer must leave no reader mutex held.
  template <class F>
  AcquireResult write_until(std::uint64_t deadline,
                                                   F&& f) {
    if (!global_.try_lock_until(deadline)) return AcquireResult::kTimeout;
    const auto release = [&](std::size_t held) {
      while (held > 0) per_thread_[--held]->unlock();
      global_.unlock();
    };
    for (std::size_t i = 0; i < per_thread_.size(); ++i) {
      if (!per_thread_[i]->try_lock_until(deadline)) {
        release(i);
        return AcquireResult::kTimeout;
      }
    }
    platform::sched_point(SchedKind::kWriteEnter, this);
    {
      ScopeExit on_exit([&] { release(per_thread_.size()); });
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kWriteExit, this);
    }
    modes_.record_write(CommitMode::kPessimistic);
    return AcquireResult::kAcquired;
  }

  std::vector<CacheLinePadded<SpinMutex>> per_thread_;
  SpinMutex global_;
  ModeRecorder modes_;
};

}  // namespace sprwl::locks
