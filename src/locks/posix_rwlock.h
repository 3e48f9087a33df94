// Classic counter-based read-write lock ("RWL" in the paper's plots).
//
// Mirrors the design the paper attributes to the pthread implementation:
// two counters protected by an internal mutex. We use writer preference
// (arriving writers block new readers) so that the baseline does not starve
// writers in read-dominated workloads; either policy scales equally poorly,
// which is the property the evaluation exposes.
//
// Exposes the region-style interface shared by every lock in this library:
//   lock.read(cs_id, [&]{ ... });   lock.write(cs_id, [&]{ ... });
// cs_id identifies the critical section for statistics; pessimistic locks
// ignore it.
#pragma once

#include <atomic>
#include <utility>

#include "common/platform.h"
#include "common/scope_exit.h"
#include "common/spin_mutex.h"
#include "locks/deadline.h"
#include "locks/stats.h"

namespace sprwl::locks {

class PosixRWLock {
 public:
  explicit PosixRWLock(int max_threads) : modes_(max_threads) {}

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
  static const char* name() noexcept { return "RWL"; }

 private:
  /// The one read path (kNoDeadline = untimed). Nothing is published until
  /// the reader count is incremented under the mutex, so a pre-entry
  /// timeout needs no unwind.
  template <class F>
  AcquireResult read_until(std::uint64_t deadline,
                                                  F&& f) {
    for (;;) {
      // Wait passively (like a futex sleeper) before touching the mutex.
      while (writer_active_.load(std::memory_order_relaxed) ||
             writers_waiting_.load(std::memory_order_relaxed) > 0) {
        if (deadline_expired(deadline)) return AcquireResult::kTimeout;
        platform::pause();
      }
      if (!mutex_.try_lock_until(deadline)) return AcquireResult::kTimeout;
      if (!writer_active_.load(std::memory_order_relaxed) &&
          writers_waiting_.load(std::memory_order_relaxed) == 0) {
        readers_.fetch_add(1, std::memory_order_relaxed);
        mutex_.unlock();
        break;
      }
      mutex_.unlock();
      if (deadline_expired(deadline)) return AcquireResult::kTimeout;
      platform::pause();
    }
    platform::sched_point(SchedKind::kReadEnter, this);
    {
      ScopeExit release([&] {
        mutex_.lock();
        readers_.fetch_sub(1, std::memory_order_relaxed);
        mutex_.unlock();
      });
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kReadExit, this);
    }
    modes_.record_read(CommitMode::kPessimistic);
    return AcquireResult::kAcquired;
  }

  /// The one write path. The waiting-writer count is published before the
  /// drain (it is what blocks new readers — writer preference), so the
  /// timeout unwind MUST decrement it: a leaked waiting count would turn
  /// away every future reader forever. The unwind's mutex acquisition is
  /// deliberately untimed — it only waits out transient holders, and the
  /// invariant restore cannot be abandoned.
  template <class F>
  AcquireResult write_until(std::uint64_t deadline,
                                                   F&& f) {
    if (!mutex_.try_lock_until(deadline)) return AcquireResult::kTimeout;
    writers_waiting_.fetch_add(1, std::memory_order_relaxed);
    mutex_.unlock();
    const auto abandon = [&]() -> AcquireResult {
      mutex_.lock();
      writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
      mutex_.unlock();
      return AcquireResult::kTimeout;
    };
    for (;;) {
      while (writer_active_.load(std::memory_order_relaxed) ||
             readers_.load(std::memory_order_relaxed) > 0) {
        if (deadline_expired(deadline)) return abandon();
        platform::pause();
      }
      mutex_.lock();
      if (!writer_active_.load(std::memory_order_relaxed) &&
          readers_.load(std::memory_order_relaxed) == 0) {
        writer_active_.store(true, std::memory_order_relaxed);
        writers_waiting_.fetch_sub(1, std::memory_order_relaxed);
        mutex_.unlock();
        break;
      }
      mutex_.unlock();
      if (deadline_expired(deadline)) return abandon();
      platform::pause();
    }
    platform::sched_point(SchedKind::kWriteEnter, this);
    {
      ScopeExit release([&] {
        mutex_.lock();
        writer_active_.store(false, std::memory_order_relaxed);
        mutex_.unlock();
      });
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kWriteExit, this);
    }
    modes_.record_write(CommitMode::kPessimistic);
    return AcquireResult::kAcquired;
  }

  SpinMutex mutex_;
  std::atomic<int> readers_{0};
  std::atomic<int> writers_waiting_{0};
  std::atomic<bool> writer_active_{false};
  ModeRecorder modes_;
};

}  // namespace sprwl::locks
