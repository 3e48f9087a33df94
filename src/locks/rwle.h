// RW-LE — hardware read-write lock elision (Felber, Issa, Matveev, Romano,
// EuroSys'16), the POWER8-only competitor of the paper's evaluation.
//
// RW-LE executes readers uninstrumented (per-thread generation flags) and
// writers first as ordinary transactions, then as POWER8 rollback-only
// transactions (ROTs). Before a ROT's buffered writes are published, the
// writer runs a *quiescence* phase waiting for the readers that overlap it
// — the cost that makes RW-LE writers collapse under long readers (Fig. 3
// and Fig. 7 of the SpRWL paper).
//
// Emulation notes (no POWER8 here; see DESIGN.md):
//  * ROTs come from htm::Engine::try_rot (buffered writes, no read
//    tracking) and are serialized by a lock that HTM-path writers
//    subscribe to, matching RW-LE's serialized ROTs.
//  * Real hardware lets an uninstrumented reader abort a ROT by touching a
//    written line (requester-wins coherence). Software cannot observe
//    plain reads, so the publish instant is protected the other way
//    around: the writer opens a commit window that newly arriving readers
//    (who re-check it right after publishing their flag) retreat from. The
//    window is only held across the (virtual-time-instant) publish, not
//    across the critical section, so reader-writer concurrency — RW-LE's
//    selling point — is preserved, and the quiescence loop retains its
//    characteristic cost: it must catch a moment with no active reader.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/cacheline.h"
#include "common/platform.h"
#include "common/scope_exit.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/sgl.h"
#include "locks/stats.h"

namespace sprwl::locks {

class RWLELock {
 public:
  struct Config {
    int max_threads = 64;
  };

  /// HTM attempts before the ROT path.
  static constexpr int kHtmRetries = 10;
  /// The RW-LE authors' budget for ROT attempts (the paper uses 5).
  static constexpr int kRotRetries = 5;
  /// Failed instant-window probes before the writer forcibly drains
  /// readers (bounds quiescence livelock; see header comment).
  static constexpr int kWindowProbes = 3;

  static constexpr std::uint8_t kCodeLockBusy = 0x01;
  static constexpr std::uint8_t kCodeReader = 0x02;
  /// Raised from inside a ROT when the quiescence drain passes its
  /// deadline: the abort rolls the buffered writes back, which IS the
  /// cancellation unwind (nothing was published).
  static constexpr std::uint8_t kCodeTimeout = 0x03;

  explicit RWLELock(Config cfg)
      : cfg_(cfg),
        flags_(static_cast<std::size_t>(cfg.max_threads)),
        modes_(cfg.max_threads) {}

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
  static const char* name() noexcept { return "RW-LE"; }

 private:
  /// The one read path (kNoDeadline = untimed). The generation flag is the
  /// only published state; a timeout can fire only while the flag is even
  /// (before the publish, or after the commit-window retreat already
  /// restored it), so no writer quiescence scan can be left waiting on a
  /// ghost.
  template <class F>
  AcquireResult read_until(std::uint64_t deadline,
                                                  F&& f) {
    auto& flag = flags_[static_cast<std::size_t>(platform::thread_id())];
    for (;;) {
      if (deadline_expired(deadline)) return AcquireResult::kTimeout;
      const std::uint64_t gen = flag.load() + 1;  // odd: active
      flag.store(gen);                            // strong-isolation store
      htm::memory_fence();
      if (!commit_window_.load(std::memory_order_seq_cst)) break;
      flag.store(gen + 1);  // retreat (back to even)
      while (commit_window_.load(std::memory_order_acquire)) {
        if (deadline_expired(deadline)) return AcquireResult::kTimeout;
        platform::pause();
      }
    }
    platform::sched_point(SchedKind::kReadEnter, this);
    {
      ScopeExit release([&] {
        htm::memory_fence();
        flag.store(flag.load() + 1);  // even: inactive
      });
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kReadExit, this);
    }
    modes_.record_read(CommitMode::kUnins);
    return AcquireResult::kAcquired;
  }

  /// The one write path. HTM attempts are all-or-nothing; the ROT path's
  /// quiescence drain aborts the transaction with kCodeTimeout when the
  /// deadline passes (rolling back the buffered writes), and the unwind
  /// closes the commit window and releases the ROT lock. The pessimistic
  /// last resort likewise closes the window if its forced drain expires —
  /// a window left open would turn every future reader away forever.
  template <class F>
  AcquireResult write_until(std::uint64_t deadline,
                                                   F&& f) {
    htm::Engine* engine = htm::Engine::current();
    const int self = platform::thread_id();

    int attempts = 0;
    for (;;) {
      while (rot_lock_.is_locked()) {
        if (deadline_expired(deadline)) return AcquireResult::kTimeout;
        platform::pause();
      }
      ++attempts;
      const htm::TxStatus status = engine->try_transaction([&] {
        if (rot_lock_.is_locked()) engine->abort_tx(kCodeLockBusy);
        platform::sched_point(SchedKind::kWriteEnter, this);
        f();
        // Commit-time reader check (the suspended-read trick on POWER8):
        for (int t = 0; t < cfg_.max_threads; ++t) {
          if (t == self) continue;
          if ((flags_[static_cast<std::size_t>(t)].load() & 1) != 0) {
            engine->abort_tx(kCodeReader);
          }
        }
        platform::sched_point(SchedKind::kWriteExit, this);
      });
      if (status.committed()) {
        modes_.record_write(CommitMode::kHtm);
        return AcquireResult::kAcquired;
      }
      modes_.record_abort(status, kCodeLockBusy, kCodeReader);
      if (status.cause == htm::AbortCause::kCapacity) {
        modes_.record_escalation(Escalation::kCapacity);
        break;
      }
      if (attempts >= kHtmRetries) {
        modes_.record_escalation(Escalation::kRetryExhausted);
        break;
      }
      if (deadline_expired(deadline)) return AcquireResult::kTimeout;
    }

    // --- ROT path ----------------------------------------------------------
    if (!rot_lock_.lock_until(deadline)) return AcquireResult::kTimeout;
    ScopeExit release([&] {
      commit_window_.store(false, std::memory_order_release);
      rot_lock_.unlock();
    });
    for (int rot_attempts = 1;; ++rot_attempts) {
      const htm::TxStatus status = engine->try_rot([&] {
        platform::sched_point(SchedKind::kWriteEnter, this);
        f();
        quiesce_until(self, deadline, engine);  // leaves the window open
        platform::sched_point(SchedKind::kWriteExit, this);
      });
      if (status.committed()) {
        modes_.record_write(CommitMode::kRot);
        return AcquireResult::kAcquired;
      }
      if (status.cause == htm::AbortCause::kExplicit &&
          status.code == kCodeTimeout) {
        return AcquireResult::kTimeout;  // ScopeExit unwinds window + lock
      }
      modes_.record_abort(status, kCodeLockBusy, kCodeReader);
      commit_window_.store(false, std::memory_order_release);
      if (rot_attempts >= kRotRetries) {
        modes_.record_escalation(Escalation::kRetryExhausted);
        break;
      }
      if (deadline_expired(deadline)) return AcquireResult::kTimeout;
    }

    // --- pessimistic last resort (rare: ROT kept aborting) ------------------
    commit_window_.store(true, std::memory_order_seq_cst);
    if (!drain_readers_until(self, deadline)) {
      return AcquireResult::kTimeout;  // ScopeExit closes the window
    }
    platform::sched_point(SchedKind::kWriteEnter, this);
    f();
    platform::sched_point(SchedKind::kWriteExit, this);
    modes_.record_write(CommitMode::kGl);
    return AcquireResult::kAcquired;
  }

  /// Grace period: every reader that was active at the snapshot finishes.
  /// New readers are free to start (RW-LE readers never wait for writers).
  /// False the moment the deadline passes.
  bool grace_period_until(int self, std::uint64_t deadline) {
    for (int t = 0; t < cfg_.max_threads; ++t) {
      if (t == self) continue;
      auto& flag = flags_[static_cast<std::size_t>(t)];
      const std::uint64_t gen = flag.load();
      if ((gen & 1) == 0) continue;
      while (flag.load() == gen) {
        if (deadline_expired(deadline)) return false;
        platform::pause();
      }
    }
    return true;
  }

  /// Wait, with the commit window held open, until no reader is active.
  /// On false (deadline passed) the CALLER must close the commit window,
  /// or readers block forever.
  bool drain_readers_until(int self, std::uint64_t deadline) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (int t = 0; t < cfg_.max_threads; ++t) {
      if (t == self) continue;
      auto& flag = flags_[static_cast<std::size_t>(t)];
      while ((flag.load() & 1) != 0) {
        if (deadline_expired(deadline)) return false;
        platform::pause();
      }
    }
    return true;
  }

  /// Quiescence, run inside a ROT: catch an instant with no active reader.
  /// Returns with the commit window open so that the engine's publish
  /// (right after the ROT body returns) cannot overlap any reader. On
  /// expiry it closes the commit window (plain atomic — the rollback would
  /// not) and aborts the transaction, discarding the buffered writes.
  void quiesce_until(int self, std::uint64_t deadline, htm::Engine* engine) {
    const auto timed_out = [&]() {
      commit_window_.store(false, std::memory_order_release);
      engine->abort_tx(kCodeTimeout);
    };
    if (!grace_period_until(self, deadline)) timed_out();
    for (int probe = 1;; ++probe) {
      commit_window_.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      bool any_active = false;
      for (int t = 0; t < cfg_.max_threads && !any_active; ++t) {
        if (t == self) continue;
        any_active = (flags_[static_cast<std::size_t>(t)].load() & 1) != 0;
      }
      if (!any_active) return;
      if (probe >= kWindowProbes) {
        // Bounded fallback: hold the window and drain.
        if (!drain_readers_until(self, deadline)) timed_out();
        return;
      }
      commit_window_.store(false, std::memory_order_release);
      if (!grace_period_until(self, deadline)) timed_out();
    }
  }

  Config cfg_;
  // Packed for the same reason as SpRWL's state array: the HTM writers'
  // commit-time scan of all flags must fit in capacity.
  aligned_vector<htm::Shared<std::uint64_t>> flags_;
  SglLock rot_lock_;
  std::atomic<bool> commit_window_{false};
  ModeRecorder modes_;
};

}  // namespace sprwl::locks
