// Execution-platform abstraction: time, spin hints and thread identity.
//
// All lock algorithms in this library are written against this tiny facade
// instead of raw rdtsc/_mm_pause so that the *same* code runs in two modes:
//
//  * real mode   — plain std::thread; now() reads the hardware TSC (the
//                  paper's prototype also uses the timestamp counter),
//                  pause() is a CPU spin hint, advance() is a no-op.
//  * simulated   — a sprwl::sim fiber installed an ExecutionContext; now()
//    mode          is the fiber's virtual clock, advance()/pause() charge
//                  virtual cycles and may switch to another fiber, and
//                  wait_until() jumps the virtual clock (modelling the
//                  paper's "timed wait on the TSC instead of spinning"
//                  optimization, Section 3.4).
//
// The indirection is one thread_local pointer check per call; negligible
// next to what it models, and it keeps the algorithm code identical to what
// would run on real hardware. thread_id() needs not even that: it reads a
// thread_local int that set_context() and set_thread_id() keep current, so
// the engine's per-access descriptor lookup costs one load in both modes.
#pragma once

#include <cstdint>

namespace sprwl {

/// Classification of schedule decision points for the simulator's
/// controlled-scheduler mode (sim::SchedulePolicy). kReadEnter..kLeaseExpire
/// are also the fault injector's checkpoints (fault::checkpoint), so one
/// name serves both.
enum class SchedKind : std::uint8_t {
  kStart = 0,   ///< fiber has not run yet
  kPause,       ///< one spin-loop iteration
  kTimedWait,   ///< a timed wait (platform::wait_until) elapsed
  kReadEnter,   ///< read critical section entered (flag raised, body not run)
  kReadBody,    ///< inside the read critical section
  kReadExit,    ///< read body done, flag not yet cleared
  kWriteEnter,  ///< write critical section entered
  kWriteBody,   ///< inside the write critical section
  kWriteExit,   ///< write body done, lock not yet released
  kLeaseRenew,  ///< dist lease acquire/renew decision point (src/dist/)
  kLeaseExpire, ///< dist lease expiry observed / grant-over-expired decision
  kApi,         ///< lock API boundary (acquire/release call)
};

inline const char* to_string(SchedKind k) noexcept {
  switch (k) {
    case SchedKind::kStart: return "start";
    case SchedKind::kPause: return "pause";
    case SchedKind::kTimedWait: return "timed-wait";
    case SchedKind::kReadEnter: return "read-enter";
    case SchedKind::kReadBody: return "read-body";
    case SchedKind::kReadExit: return "read-exit";
    case SchedKind::kWriteEnter: return "write-enter";
    case SchedKind::kWriteBody: return "write-body";
    case SchedKind::kWriteExit: return "write-exit";
    case SchedKind::kLeaseRenew: return "lease-renew";
    case SchedKind::kLeaseExpire: return "lease-expire";
    case SchedKind::kApi: return "api";
  }
  return "?";
}

/// Per-thread execution environment; implemented by sim::Simulator for
/// fibers. Real threads run with no context installed.
class ExecutionContext {
 public:
  virtual ~ExecutionContext() = default;

  /// Current time in cycles (virtual or TSC).
  virtual std::uint64_t now() = 0;

  /// Charge `cycles` of work to this thread's clock.
  virtual void advance(std::uint64_t cycles) = 0;

  /// One spin-loop iteration: charges a small cost and lets others run.
  virtual void pause() = 0;

  /// Block (in virtual time) until now() >= t.
  virtual void wait_until(std::uint64_t t) = 0;

  /// Dense id of the logical thread this context runs, in [0, max_threads).
  /// Data, not a virtual call: set_context() copies it into the
  /// thread_local that platform::thread_id() reads.
  int thread_id() const noexcept { return thread_id_; }

  /// Schedule decision point (controlled-scheduler mode only; see
  /// sim::SchedulePolicy). `obj` identifies the lock/object the point
  /// belongs to, 0 when unknown. Default: no-op.
  virtual void sched_point(SchedKind kind, std::uintptr_t obj) {
    (void)kind;
    (void)obj;
  }

  /// Whether sched_point() calls should be forwarded at all. Checked inline
  /// by platform::sched_point() so that instrumented code pays one
  /// predictable branch outside controlled mode.
  bool sched_points_enabled() const noexcept { return sched_points_; }

 protected:
  /// Every context names its thread. One that learns the id later (a
  /// simulator fiber's, when it is bound) passes -1 and sets thread_id_
  /// before it is installed.
  explicit ExecutionContext(int thread_id) noexcept : thread_id_(thread_id) {}

  int thread_id_;
  bool sched_points_ = false;
};

namespace platform {

namespace detail {
// The per-thread state lives here (defined in platform.cpp) so the facade
// functions below can inline into the simulator/engine hot paths — they
// run tens of millions of times per bench data point, and a cross-TU call
// per virtual-cycle charge is measurable at that rate. `constinit` tells
// other TUs the initializer is constant, so no access goes through a
// dynamic TLS-init check (one per access without it, and UBSan reports a
// null load in that check's code path).
extern constinit thread_local ExecutionContext* t_context;
// What thread_id() returns: the installed context's id, else t_os_thread_id.
extern constinit thread_local int t_thread_id;
// The id set_thread_id() gave this OS thread; it wins without a context.
extern constinit thread_local int t_os_thread_id;
std::uint64_t real_now() noexcept;
void real_pause() noexcept;
void real_wait_until(std::uint64_t t) noexcept;
}  // namespace detail

/// Install/remove the context for the calling OS thread, and with it the
/// thread id: the context's while installed. Passing nullptr restores real
/// mode and the id set_thread_id() gave the thread.
inline void set_context(ExecutionContext* ctx) noexcept {
  detail::t_context = ctx;
  detail::t_thread_id =
      ctx != nullptr ? ctx->thread_id() : detail::t_os_thread_id;
}
inline ExecutionContext* context() noexcept { return detail::t_context; }

/// In real mode, threads must be given a dense id before touching any lock
/// that keeps per-thread state. In simulated mode the fiber id wins.
inline void set_thread_id(int tid) noexcept {
  detail::t_os_thread_id = tid;
  if (detail::t_context == nullptr) detail::t_thread_id = tid;
}

// These may throw when a simulated context enforces its virtual-time limit
// (sim::SimTimeLimitError), hence no noexcept.
inline std::uint64_t now() {
  ExecutionContext* c = detail::t_context;
  return c != nullptr ? c->now() : detail::real_now();
}
inline void advance(std::uint64_t cycles) {
  ExecutionContext* c = detail::t_context;
  if (c != nullptr) c->advance(cycles);
}
inline void pause() {
  ExecutionContext* c = detail::t_context;
  if (c != nullptr) {
    c->pause();
    return;
  }
  detail::real_pause();
}
inline void wait_until(std::uint64_t t) {
  ExecutionContext* c = detail::t_context;
  if (c != nullptr) {
    c->wait_until(t);
    return;
  }
  detail::real_wait_until(t);
}
inline int thread_id() noexcept { return detail::t_thread_id; }
/// Schedule decision point. A no-op (one predictable branch) except under
/// the simulator's controlled-scheduler mode, where it parks the calling
/// fiber and lets the active SchedulePolicy decide who runs next. `obj`
/// tags the point with the lock/object it belongs to.
inline void sched_point(SchedKind kind, const void* obj = nullptr) {
  ExecutionContext* c = detail::t_context;
  if (c != nullptr && c->sched_points_enabled()) {
    c->sched_point(kind, reinterpret_cast<std::uintptr_t>(obj));
  }
}

}  // namespace platform

/// RAII helper for real-thread harnesses: assigns the dense thread id for
/// the lifetime of a worker's body.
class ThreadIdScope {
 public:
  explicit ThreadIdScope(int tid) noexcept { platform::set_thread_id(tid); }
  ~ThreadIdScope() { platform::set_thread_id(-1); }
  ThreadIdScope(const ThreadIdScope&) = delete;
  ThreadIdScope& operator=(const ThreadIdScope&) = delete;
};

}  // namespace sprwl
