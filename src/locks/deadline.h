// Deadline-aware acquisition: the shared vocabulary for the timed lock
// API (try_read_for / try_write_for) across src/core/ and src/locks/.
//
// Deadlines are virtual-time budgets: a caller passes a RELATIVE budget in
// cycles and the lock converts it once, at entry, into an absolute
// platform::now() deadline. Expiry checks compare against platform::now(),
// which is free in the simulator (it reads the fiber clock without
// charging), so a lock needs only ONE acquisition body per mode: the
// untimed entry points run it at kNoDeadline and execute the exact
// charged-operation sequence of a lock that had no deadlines at all — the
// byte-identical-traces property the bench determinism tests pin
// (PhaseFairRWLock keeps two on purpose: DESIGN.md §13). The entry points
// that call such a body are [[gnu::flatten]]: in the larger merged body GCC
// stops inlining the mutex and platform hooks, and forcing only the body
// or only the hooks inline still left an uncontended untimed section
// 12-27% slower on the host (bench/micro_lock_ops, RWL and PRWL reads).
//
// kShed is never produced by a lock itself: it is the admission-control
// outcome of the open-loop queue layer (sim/arrivals.h), which shares this
// result type so per-class service stats can count all three terminal
// outcomes uniformly.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/costs.h"
#include "common/platform.h"

namespace sprwl::locks {

enum class AcquireResult : std::uint8_t {
  kAcquired = 0,  ///< lock held, closure ran, lock released
  kTimeout = 1,   ///< deadline expired before entry; all state unwound
  kShed = 2,      ///< rejected by admission control before reaching the lock
};

inline const char* to_string(AcquireResult r) noexcept {
  switch (r) {
    case AcquireResult::kAcquired: return "acquired";
    case AcquireResult::kTimeout: return "timeout";
    case AcquireResult::kShed: return "shed";
  }
  return "?";
}

/// "No deadline" sentinel: an absolute virtual time no run reaches. Timed
/// entry points called with this budget must compile down to the untimed
/// paths (every expiry check is a not-taken branch on a free clock read).
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

/// Converts a relative budget (cycles from now) into an absolute deadline,
/// validating it loudly at entry — the checked_tid convention. A zero
/// budget is rejected rather than treated as "already expired" (it is
/// always a caller bug: try_lock semantics belong to an explicit API, not
/// to a degenerate deadline), and a budget that would wrap the virtual
/// clock is rejected rather than silently becoming a past deadline.
inline std::uint64_t checked_deadline(std::uint64_t budget_cycles) {
  if (budget_cycles == 0) {
    throw std::invalid_argument("deadline budget must be nonzero");
  }
  if (budget_cycles == kNoDeadline) return kNoDeadline;
  const std::uint64_t now = platform::now();
  if (budget_cycles > kNoDeadline - now - 1) {
    throw std::invalid_argument(
        "deadline budget overflows the virtual clock");
  }
  return now + budget_cycles;
}

/// True iff `deadline` is a real deadline that has passed. Free in the
/// simulator: platform::now() does not charge, so sprinkling this on hot
/// paths cannot perturb untimed traces.
inline bool deadline_expired(std::uint64_t deadline) noexcept {
  return deadline != kNoDeadline && platform::now() >= deadline;
}

/// Caps a wait target at the deadline (identity when kNoDeadline).
inline std::uint64_t cap_wait(std::uint64_t until,
                              std::uint64_t deadline) noexcept {
  return until < deadline ? until : deadline;
}

/// pause() for deadline-bounded spin loops. A plain pause advances the
/// clock by its full cost, so a spinner detects expiry only at the next
/// multiple of g_costs.pause past the deadline — the retry the waiter then
/// abandons was already doomed when the deadline struck. When the expiry
/// would land inside the pause, this sleeps on a deadline-keyed simulator
/// wakeup to exactly `deadline` instead, so the caller's next
/// deadline_expired() check observes now == deadline precisely (the
/// wait-until writer abort). kNoDeadline compiles to the plain pause —
/// untimed traces stay byte-identical.
inline void deadline_pause(std::uint64_t deadline) {
  if (deadline != kNoDeadline) {
    const std::uint64_t now = platform::now();
    if (now < deadline && deadline - now < g_costs.pause) {
      platform::wait_until(deadline);
      return;
    }
  }
  platform::pause();
}

}  // namespace sprwl::locks
