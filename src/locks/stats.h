// Commit-mode accounting shared by all lock implementations.
//
// The paper's evaluation breaks critical sections down by the mode in which
// they eventually committed: HTM, ROT, GL (pessimistic fallback) and Unins
// (SpRWL's uninstrumented reader path). The baseline locks keep per-thread
// padded counters (ModeRecorder); SpRWL keeps one lock-wide block of
// relaxed atomics (core/sprwl.h) so a hot lock's plane stays small. Both
// fill the same LockStats and classify aborts through classify_abort().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cacheline.h"
#include "common/platform.h"
#include "htm/htm.h"

namespace sprwl::locks {

/// Mode in which one critical section completed.
enum class CommitMode : std::uint8_t { kHtm, kRot, kGl, kUnins, kPessimistic };

/// Why an HTM lock left its speculative path for the pessimistic fallback
/// (or refused to, for kLemmingAvoided). Purely-pessimistic locks never
/// escalate; their counters stay zero.
enum class Escalation : std::uint8_t {
  kRetryExhausted,   ///< burned the configured HTM retry budget
  kCapacity,        ///< capacity abort: retrying cannot help, fall back now
  kStalledReader,   ///< reader-stall watchdog fired (writer waited too long)
  kBudgetExhausted,  ///< virtual-time retry budget exceeded (abort storm)
  kLemmingAvoided,   ///< lock-busy abort forgiven: attempt not counted
};
inline constexpr std::size_t kEscalations = 5;
static_assert(static_cast<std::size_t>(Escalation::kLemmingAvoided) + 1 ==
              kEscalations);

/// The class of one failed HTM attempt, as this library reports it: the
/// engine's cause, with explicit aborts split by the lock's own codes.
enum class AbortClass : std::uint8_t {
  kConflict,
  kCapacity,
  kLockBusy,  ///< explicit: the subscription found the fallback lock held
  kReader,    ///< explicit: SpRWL/RW-LE "reader" abort class
  kOther,     ///< any other explicit code
  kSpurious,
};
inline constexpr std::size_t kAbortClasses = 6;
static_assert(static_cast<std::size_t>(AbortClass::kSpurious) + 1 ==
              kAbortClasses);

/// Classifies one failed attempt (`status.cause` is not kNone).
/// `lock_busy_code` and `reader_code` are the lock's explicit-abort codes;
/// a reader_code of 0 means the lock has no reader class.
constexpr AbortClass classify_abort(const htm::TxStatus& status,
                                    std::uint8_t lock_busy_code,
                                    std::uint8_t reader_code = 0) noexcept {
  switch (status.cause) {
    case htm::AbortCause::kConflict: return AbortClass::kConflict;
    case htm::AbortCause::kCapacity: return AbortClass::kCapacity;
    case htm::AbortCause::kSpurious: return AbortClass::kSpurious;
    case htm::AbortCause::kNone:
    case htm::AbortCause::kExplicit: break;
  }
  if (status.code == lock_busy_code) return AbortClass::kLockBusy;
  if (reader_code != 0 && status.code == reader_code) return AbortClass::kReader;
  return AbortClass::kOther;
}

/// Per-lock abort-cause breakdown. The engine keeps aggregate counters for
/// every transaction in the process; these are the same causes attributed
/// to *this lock's* critical sections, with explicit aborts split into the
/// classes the paper reports (lock-subscription vs. active-reader).
struct AbortBreakdown {
  std::uint64_t conflict = 0;
  std::uint64_t capacity = 0;
  std::uint64_t explicit_lock_busy = 0;  ///< subscription found the GL held
  std::uint64_t explicit_reader = 0;     ///< SpRWL/RW-LE "reader" abort class
  std::uint64_t explicit_other = 0;
  std::uint64_t spurious = 0;            ///< modelled interrupts / syscalls
  std::uint64_t total() const noexcept {
    return conflict + capacity + explicit_lock_busy + explicit_reader +
           explicit_other + spurious;
  }
  void add(AbortClass c, std::uint64_t n = 1) noexcept {
    switch (c) {
      case AbortClass::kConflict: conflict += n; break;
      case AbortClass::kCapacity: capacity += n; break;
      case AbortClass::kLockBusy: explicit_lock_busy += n; break;
      case AbortClass::kReader: explicit_reader += n; break;
      case AbortClass::kOther: explicit_other += n; break;
      case AbortClass::kSpurious: spurious += n; break;
    }
  }
  AbortBreakdown& operator+=(const AbortBreakdown& o) noexcept {
    conflict += o.conflict;
    capacity += o.capacity;
    explicit_lock_busy += o.explicit_lock_busy;
    explicit_reader += o.explicit_reader;
    explicit_other += o.explicit_other;
    spurious += o.spurious;
    return *this;
  }
};

/// Escalation counters (graceful-degradation accounting; DESIGN.md §8).
struct EscalationCounts {
  std::uint64_t retry_exhausted = 0;
  std::uint64_t capacity = 0;
  std::uint64_t stalled_reader = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t lemming_avoided = 0;
  std::uint64_t fallbacks() const noexcept {
    return retry_exhausted + capacity + stalled_reader + budget_exhausted;
  }
  void add(Escalation e, std::uint64_t n = 1) noexcept {
    switch (e) {
      case Escalation::kRetryExhausted: retry_exhausted += n; break;
      case Escalation::kCapacity: capacity += n; break;
      case Escalation::kStalledReader: stalled_reader += n; break;
      case Escalation::kBudgetExhausted: budget_exhausted += n; break;
      case Escalation::kLemmingAvoided: lemming_avoided += n; break;
    }
  }
  EscalationCounts& operator+=(const EscalationCounts& o) noexcept {
    retry_exhausted += o.retry_exhausted;
    capacity += o.capacity;
    stalled_reader += o.stalled_reader;
    budget_exhausted += o.budget_exhausted;
    lemming_avoided += o.lemming_avoided;
    return *this;
  }
};

struct OpModeCounts {
  std::uint64_t htm = 0;
  std::uint64_t rot = 0;
  std::uint64_t gl = 0;
  std::uint64_t unins = 0;
  std::uint64_t pessimistic = 0;  ///< always-pessimistic locks (RWL, BRLock, ...)

  std::uint64_t total() const noexcept { return htm + rot + gl + unins + pessimistic; }

  void bump(CommitMode m) noexcept {
    switch (m) {
      case CommitMode::kHtm: ++htm; break;
      case CommitMode::kRot: ++rot; break;
      case CommitMode::kGl: ++gl; break;
      case CommitMode::kUnins: ++unins; break;
      case CommitMode::kPessimistic: ++pessimistic; break;
    }
  }

  OpModeCounts& operator+=(const OpModeCounts& o) noexcept {
    htm += o.htm;
    rot += o.rot;
    gl += o.gl;
    unins += o.unins;
    pessimistic += o.pessimistic;
    return *this;
  }
};

struct LockStats {
  OpModeCounts reads;
  OpModeCounts writes;
  AbortBreakdown aborts;
  EscalationCounts escalations;
};

/// Per-thread, cache-line-padded recorder; snapshot() aggregates. Recording
/// is uncharged (bookkeeping, not modelled work).
class ModeRecorder {
 public:
  explicit ModeRecorder(int max_threads)
      : slots_(static_cast<std::size_t>(max_threads)) {}

  void record_read(CommitMode m) { mine().reads.bump(m); }
  void record_write(CommitMode m) { mine().writes.bump(m); }

  /// Attributes one failed HTM attempt to this lock (see classify_abort).
  void record_abort(const htm::TxStatus& status, std::uint8_t lock_busy_code,
                    std::uint8_t reader_code = 0) {
    if (status.committed()) return;
    mine().aborts.add(classify_abort(status, lock_busy_code, reader_code));
  }

  void record_escalation(Escalation e) { mine().escalations.add(e); }

  LockStats snapshot() const {
    LockStats s;
    for (const auto& slot : slots_) {
      s.reads += slot.value.reads;
      s.writes += slot.value.writes;
      s.aborts += slot.value.aborts;
      s.escalations += slot.value.escalations;
    }
    return s;
  }

  void reset() {
    for (auto& slot : slots_) slot.value = LockStats{};
  }

  /// Heap bytes held by the per-thread slots (per-lock footprint accounting).
  std::size_t footprint_bytes() const noexcept {
    return slots_.capacity() * sizeof(CacheLinePadded<LockStats>);
  }

 private:
  LockStats& mine() { return slots_[static_cast<std::size_t>(platform::thread_id())].value; }

  std::vector<CacheLinePadded<LockStats>> slots_;
};

}  // namespace sprwl::locks
