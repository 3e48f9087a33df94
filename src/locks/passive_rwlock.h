// Passive reader-writer lock, after PRWL (Liu, Zhang, Chen — USENIX
// ATC'14).
//
// Readers never perform an atomic read-modify-write on shared state: they
// publish a per-thread version-stamped flag and a fence, and proceed unless
// a writer is present. Writers serialize on a mutex, bump the global
// version and wait until every reader slot is either inactive or stamped
// with the new version (i.e., the reader acknowledged the writer). This is
// the version-based consensus the paper's related-work section describes,
// reduced to its message-passing core (the original distinguishes hot/cold
// readers; our workloads are uniformly hot).
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/costs.h"
#include "common/platform.h"
#include "common/scope_exit.h"
#include "common/spin_mutex.h"
#include "locks/deadline.h"
#include "locks/stats.h"

namespace sprwl::locks {

class PassiveRWLock {
 public:
  explicit PassiveRWLock(int max_threads)
      : slots_(static_cast<std::size_t>(max_threads)), modes_(max_threads) {}

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
  static const char* name() noexcept { return "PRWL"; }

 private:
  /// The one read path (kNoDeadline = untimed). A timeout can only fire
  /// while the slot is inactive (before the publish, or after the retreat
  /// already cleared it), so the abandoned acquisition leaves no stamped
  /// slot for a writer's consensus drain to wait on.
  template <class F>
  AcquireResult read_until(std::uint64_t deadline,
                                                  F&& f) {
    auto& slot = *slots_[static_cast<std::size_t>(platform::thread_id())];
    for (;;) {
      if (deadline_expired(deadline)) return AcquireResult::kTimeout;
      const std::uint64_t v = version_.load(std::memory_order_acquire);
      platform::advance(g_costs.store + g_costs.fence);
      slot.store(make_active(v), std::memory_order_seq_cst);
      if (version_.load(std::memory_order_seq_cst) == v &&
          !writer_present_.load(std::memory_order_seq_cst)) {
        break;
      }
      // A writer moved in: retreat and wait passively.
      slot.store(kInactive, std::memory_order_release);
      while (writer_present_.load(std::memory_order_acquire)) {
        if (deadline_expired(deadline)) return AcquireResult::kTimeout;
        platform::pause();
      }
    }
    platform::sched_point(SchedKind::kReadEnter, this);
    {
      ScopeExit release([&] {
        platform::advance(g_costs.store);
        slot.store(kInactive, std::memory_order_release);
      });
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kReadExit, this);
    }
    modes_.record_read(CommitMode::kPessimistic);
    return AcquireResult::kAcquired;
  }

  /// The one write path. The consensus drain (a reader parked in its
  /// section stalls it indefinitely) is the abandonable wait. The unwind
  /// clears writer_present_ and releases the mutex; the version bump
  /// stays, which is harmless — readers only compare their own stamp
  /// against the current version, never against a count.
  template <class F>
  AcquireResult write_until(std::uint64_t deadline,
                                                   F&& f) {
    if (!mutex_.try_lock_until(deadline)) return AcquireResult::kTimeout;
    platform::advance(g_costs.store + g_costs.fence);
    writer_present_.store(true, std::memory_order_seq_cst);
    version_.fetch_add(1, std::memory_order_seq_cst);
    const auto release = [&] {
      platform::advance(g_costs.store);
      writer_present_.store(false, std::memory_order_release);
      mutex_.unlock();
    };
    // Consensus: wait until no reader from an older version is active.
    for (auto& s : slots_) {
      while (s->load(std::memory_order_acquire) != kInactive) {
        if (deadline_expired(deadline)) {
          release();
          return AcquireResult::kTimeout;
        }
        platform::pause();
      }
    }
    platform::sched_point(SchedKind::kWriteEnter, this);
    {
      ScopeExit on_exit(release);
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kWriteExit, this);
    }
    modes_.record_write(CommitMode::kPessimistic);
    return AcquireResult::kAcquired;
  }

  static constexpr std::uint64_t kInactive = 0;
  static std::uint64_t make_active(std::uint64_t version) noexcept {
    return (version << 1) | 1;
  }

  std::vector<CacheLinePadded<std::atomic<std::uint64_t>>> slots_;
  std::atomic<std::uint64_t> version_{0};
  std::atomic<bool> writer_present_{false};
  SpinMutex mutex_;
  ModeRecorder modes_;
};

}  // namespace sprwl::locks
