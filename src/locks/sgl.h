// The single-global-lock (SGL) used as the HTM fallback path.
//
// The lock word is a Shared<> cell so that transactions can *subscribe* to
// it: reading it inside a transaction adds it to the read set, and any
// later acquisition invalidates the transaction — the standard TLE
// "lock-subscription" idiom (Rajwar & Goodman). The word doubles as a
// version counter (LSB = held, upper bits = acquisition count), which the
// versioned-SGL reader-starvation fix of the paper's Section 3.3 uses.
#pragma once

#include <cstdint>

#include "common/platform.h"
#include "htm/shared.h"
#include "locks/deadline.h"

namespace sprwl::locks {

class SglLock {
 public:
  /// Transaction-aware: called inside a transaction this subscribes the
  /// caller to the lock word.
  bool is_locked() const { return (word_.load() & 1) != 0; }

  /// Number of acquisitions so far (the "lock version" of Section 3.3).
  std::uint64_t version() const { return word_.load() >> 1; }

  /// Raw combined state for version+locked in one load.
  std::uint64_t state() const { return word_.load(); }

  /// Uncharged raw view of the combined state, bypassing the engine
  /// dispatch entirely. The snapshot-reader pin guard needs it: after the
  /// pin, Shared::load would resolve this word *as of the snapshot* and
  /// validate unconditionally (core/sprwl.h read_snapshot).
  std::uint64_t state_raw() const noexcept { return word_.raw_load(); }

  void lock() { lock_until(kNoDeadline); }

  /// lock() with an absolute virtual-time deadline (kNoDeadline = none): a
  /// load/cas/pause spin plus a free expiry check per iteration, so at
  /// kNoDeadline it charges exactly a plain spin. A spin whose expiry would
  /// land mid-pause sleeps to exactly the deadline instead
  /// (deadline_pause), so timeouts are observed at now == deadline.
  bool lock_until(std::uint64_t deadline) {
    for (;;) {
      const std::uint64_t w = word_.load();
      if ((w & 1) == 0 && word_.cas(w, w + 1)) return true;
      if (deadline_expired(deadline)) return false;
      deadline_pause(deadline);
    }
  }

  bool try_lock() {
    const std::uint64_t w = word_.load();
    return (w & 1) == 0 && word_.cas(w, w + 1);
  }

  void unlock() {
    const std::uint64_t w = word_.load();
    word_.store(w + 1);  // odd -> even: releases and bumps the version
  }

 private:
  htm::Shared<std::uint64_t> word_;
};

}  // namespace sprwl::locks
