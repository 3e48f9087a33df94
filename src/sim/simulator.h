// Deterministic fiber-based virtual-time simulator.
//
// The paper's evaluation ran on a 56-thread Broadwell and an 80-thread
// POWER8. This reproduction runs on whatever host it is given (possibly a
// single core), so wall-clock throughput cannot demonstrate scalability.
// Instead, benchmarks execute their worker threads as cooperatively
// scheduled fibers under a *virtual clock*:
//
//  * every fiber has its own virtual time; the scheduler always runs the
//    fiber with the smallest (time, id), so shared-memory accesses happen
//    in virtual-time order — exactly the interleaving a real machine with
//    one logical CPU per thread would expose;
//  * each shared access / fence / HTM event charges cycles from the
//    CostModel (common/costs.h), so overlap between critical sections is
//    modelled faithfully: N readers that each take T cycles and run
//    concurrently cost ~T of virtual time, not N*T;
//  * runs are bit-deterministic given the workload seed, which the test
//    suite exploits heavily.
//
// Because only one fiber executes at any instant (single OS thread), plain
// std::atomic operations in the algorithm code are trivially well-defined;
// the algorithms still use correct orderings so the same code passes the
// real-thread stress tests.
//
// A fiber must never block on an OS primitive held by another fiber; all
// waiting in this library is spinning via platform::pause(), which advances
// virtual time and yields, so the scheduler always makes progress. A
// configurable virtual-time limit converts livelock bugs into test failures.
//
// Scheduler hot path (this is the inner loop of every benchmark, so its
// wall-clock cost gates the whole evaluation pipeline; in the long-reader
// regime nearly every simulated access yields):
//
//  * the ready set (sim/ready_set.h) is a sorted run of packed (time, id)
//    keys. A yielding fiber has just passed the minimum and spinners all
//    advance by similar amounts, so it almost always re-enters at or near
//    the back: taking the minimum is a head bump and the re-insert is one
//    compare plus a few shifts, with no data-dependent tree walk;
//  * when a yielding fiber already knows the next runnable fiber (the
//    ready-set minimum), it switches to it *directly* instead of bouncing
//    through the scheduler stack — one context switch per handoff instead
//    of two, which halves switches on ping-pong workloads
//    (SimConfig::direct_switch; disable to get the classic trampoline).
//    The schedule is identical either way: a fiber yields only when its
//    clock passed the minimum, so insert-self-then-take-min selects exactly
//    the fiber the trampoline's pop would have selected;
//  * the libstdc++ exception globals swapped at every switch are located
//    once per run(), not per switch;
//  * fiber stacks are recycled through a thread-local pool instead of being
//    freshly allocated (and zeroed) for every run() — a 56-fiber run reuses
//    ~14 MB of stacks that would otherwise be re-touched per data point;
//  * SimStats counts switches, direct switches and ready-set traffic so the
//    perf trajectory (BENCH_perf.json) can report switches/sec.
//
// Context switching uses a ~20ns hand-rolled x86-64 switch (glibc
// swapcontext would issue a sigprocmask syscall per switch); other
// architectures fall back to ucontext.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/platform.h"
#include "sim/ready_set.h"
#include "sim/schedule_policy.h"
#include "sim/topology.h"

namespace sprwl::sim {

struct SimConfig {
  std::size_t stack_bytes = 256 * 1024;
  /// Virtual-time runaway guard: a fiber whose clock passes this limit
  /// throws SimTimeLimitError (surfaces livelocks deterministically).
  /// 20e9 cycles = 10 virtual seconds at the default 2 GHz — far beyond any
  /// test or bench window, small enough that deadlock tests fail fast.
  std::uint64_t max_virtual_time = 20ULL * 1000 * 1000 * 1000;
  /// Fiber→fiber handoff without the scheduler trampoline (see the header
  /// comment). Schedules are bit-identical with it on or off; off costs one
  /// extra context switch per yield and exists as the measurable baseline.
  bool direct_switch = true;
  /// Faithful reproduction of the original scheduler, kept as the oracle
  /// the scheduler tests compare against and as bench/perf_pipeline's
  /// "serial_old" baseline: ready set in a binary std::priority_queue, a
  /// fresh zero-initialized stack per fiber per run() (no pooling), always
  /// through the trampoline (direct_switch is ignored). The schedule — and therefore every virtual-time result — is
  /// bit-identical to the default scheduler; only wall-clock cost differs.
  bool legacy_ready_queue = false;
  /// Controlled-scheduler mode (systematic testing, src/check/): when set,
  /// virtual-time order no longer drives scheduling. Every pause, timed
  /// wait and fault::checkpoint() parks the fiber, and the policy chooses
  /// which parked fiber runs next. Incompatible with legacy_ready_queue.
  SchedulePolicy* policy = nullptr;
  /// Controlled mode: hard cap on decisions per run — a second livelock
  /// backstop (the primary one is no_progress_bound) and the bound that
  /// keeps DFS runs finite on spin-heavy code.
  std::size_t max_decisions = 20000;
  /// Controlled mode: after this many consecutive decision rounds in which
  /// no fiber made progress (every eligible fiber merely re-parked at a
  /// spin pause), the run is declared livelocked/deadlocked and unwound.
  /// 0 (the default) derives the bound from the fiber count at run() entry:
  /// 64 + 16 * nthreads rounds. Queue locks hand off through chains whose
  /// zero-progress prefix grows with the number of parked waiters (an MCS
  /// release walks the whole queue through pause decisions before the next
  /// owner runs), so a flat constant starts flagging healthy handoffs as
  /// livelock around 8 threads. The per-thread term keeps the bound
  /// proportional to the deepest legitimate pending-queue a schedule can
  /// build while still converting true livelocks into verdicts quickly.
  /// Explicit values are honoured unchanged (livelock tests pin small ones).
  int no_progress_bound = 0;

  /// Simulated machine shape (sockets × cores-per-socket). Fiber tid = core
  /// id, socket-major. Consumed by the HTM engine's coherence model and the
  /// topology-aware lock layouts; the simulator itself schedules purely by
  /// virtual time, so the default 1-socket topology changes nothing.
  Topology topology{};

  /// The no-progress bound a run over `nthreads` fibers actually uses.
  int resolved_no_progress_bound(int nthreads) const noexcept {
    if (no_progress_bound > 0) return no_progress_bound;
    return 64 + 16 * (nthreads > 0 ? nthreads : 1);
  }
};

/// Cheap per-run scheduler counters (reset at every run() entry).
struct SimStats {
  std::uint64_t switches = 0;         ///< activations: control entered a fiber
  std::uint64_t direct_switches = 0;  ///< activations done fiber→fiber
  /// Ready-set insertions and minimum removals (a direct switch counts one
  /// of each). The names predate the sorted run; the counts are a property
  /// of the schedule, identical for every ready-set structure.
  std::uint64_t heap_pushes = 0;
  std::uint64_t heap_pops = 0;
};

class SimTimeLimitError : public std::runtime_error {
 public:
  explicit SimTimeLimitError(std::uint64_t t)
      : std::runtime_error("virtual time limit exceeded at " + std::to_string(t)) {}
};

/// Thrown into fibers to unwind them when a controlled run is abandoned
/// (policy returned kCancelRun, livelock verdict, max_decisions). NOT
/// derived from std::exception on purpose: workload bodies that catch
/// std::exception (or lock code that catches specific exception types and
/// rethrows the rest via `catch (...) { ...; throw; }`) must not swallow
/// it. fiber_body catches it and discards it — a cancelled fiber reports
/// no error.
class RunCancelled {};

class Simulator {
 public:
  explicit Simulator(SimConfig cfg = {});
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs `nthreads` fibers executing body(tid) for tid in [0, nthreads).
  /// Blocks until every fiber finished. Rethrows the first fiber error (the
  /// one earliest in virtual time); remaining fibers still run to
  /// completion (or to the virtual-time limit).
  ///
  /// Reuse semantics: a Simulator may run any number of workloads back to
  /// back. Every run() resets the per-run results (final_time(),
  /// preemptions(), stats()) at entry — they always describe the most
  /// recent run, never an accumulation — and recycles fiber stacks through
  /// a thread-local pool, so repeated runs do not re-allocate. run(0) is a
  /// no-op that leaves the previous run's results readable. A Simulator is
  /// single-threaded: run() must not be called concurrently from two OS
  /// threads, but different Simulators on different threads are fine (the
  /// parallel bench runner relies on exactly that).
  void run(int nthreads, const std::function<void(int)>& body);

  /// Virtual time at which the last fiber of the previous run() finished.
  std::uint64_t final_time() const noexcept { return final_time_; }

  /// Fault-injection hook: deschedules the *currently running* fiber until
  /// virtual time `until`, modelling an OS preemption — the fiber performs
  /// no work while other fibers run in the gap, and its clock resumes at
  /// `until`. Must be called from inside a fiber of this simulator (no-op
  /// otherwise). Throws SimTimeLimitError past the virtual-time limit, so
  /// runaway fault plans still terminate deterministically.
  void deschedule_current_until(std::uint64_t until);

  /// Count of deschedule_current_until() preemptions in the current/last run.
  std::uint64_t preemptions() const noexcept { return preemptions_; }

  /// Scheduler counters for the current/last run.
  const SimStats& stats() const noexcept { return stats_; }

  // --- controlled-mode results (meaningful only when cfg.policy != null) ---

  /// The decision sequence of the current/last controlled run: the op that
  /// was chosen (and resumed) at each decision point, in order. Feed the
  /// fiber ids to a ReplayPolicy to reproduce the schedule exactly.
  const std::vector<PendingOp>& decision_trace() const noexcept {
    return trace_;
  }
  /// True when the last controlled run was abandoned because no fiber made
  /// progress within no_progress_bound rounds (livelock/deadlock) or the
  /// max_decisions cap was hit.
  bool livelocked() const noexcept { return livelocked_; }
  /// True when the last controlled run was abandoned for any reason
  /// (policy kCancelRun or livelock verdict) and its fibers were unwound.
  bool cancelled() const noexcept { return cancelled_; }

  // --- internal (public for the assembly entry thunk) ----------------------
  struct Fiber;
  static void fiber_body(Fiber& f);
  static void exit_fiber(Fiber& f);

 private:
  struct FiberContext;

  void schedule_loop();
  void schedule_loop_legacy();
  void schedule_loop_controlled();
  /// Parks the running fiber at a decision point (controlled mode only).
  void controlled_point(SchedKind kind, std::uintptr_t obj);
  /// Resumes fiber f from the scheduler with full context bookkeeping.
  void activate_fiber(Fiber& f);
  /// Unwinds every live fiber with RunCancelled (round-robin until all
  /// done, so unwind-time spin waits — e.g. queue-lock handoffs inside
  /// ScopeExit blocks — still make progress).
  void cancel_all_fibers();
  std::uintptr_t canonical_obj(std::uintptr_t raw);
  void fiber_advance(Fiber& f, std::uint64_t cycles);
  void fiber_wait_until(Fiber& f, std::uint64_t t);
  void yield_from(Fiber& f);
  void yield_to_scheduler(Fiber& f);
  void direct_switch_from(Fiber& f);
  void switch_to_fiber(Fiber& f);
  void prepare_fiber(Fiber& f);

  // Ready-set wrappers that keep SimStats' heap_pushes/heap_pops current.
  void ready_push(std::uint64_t key) {
    ++stats_.heap_pushes;
    ready_.push(key);
  }
  std::uint64_t ready_pop() {
    ++stats_.heap_pops;
    return ready_.pop();
  }

  SimConfig cfg_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  ReadySet ready_;
  const std::function<void(int)>* body_ = nullptr;
  void* sched_rsp_ = nullptr;  // x86-64 fast path save slot
  void* main_ctx_ = nullptr;   // ucontext fallback
  Fiber* running_ = nullptr;   // fiber currently on the CPU (else scheduler)
  // The scheduler's __cxa_eh_globals, saved while a fiber runs. All fibers
  // share one OS thread, so the libstdc++ per-thread exception bookkeeping
  // must be swapped at every context switch — otherwise two fibers that
  // yield inside catch handlers pop each other's in-flight exception
  // objects (see simulator.cpp). eh_globals_ is the live structure,
  // located once at run() entry (it is per OS thread, and a run never
  // leaves its thread).
  unsigned char sched_eh_state_[2 * sizeof(void*)] = {};
  unsigned char* eh_globals_ = nullptr;
  // AddressSanitizer fiber bookkeeping; unused outside ASan builds. A
  // fiber's first activation may now come from another fiber (direct
  // switch), so fiber_body only records the origin stack as the scheduler's
  // when from_scheduler_ says the activation came from schedule_loop.
  void* sched_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  bool from_scheduler_ = false;
  bool direct_switch_ = false;  // cfg_.direct_switch, resolved at run() entry
  std::uint64_t next_wake_ = 0;
  std::uint64_t final_time_ = 0;
  std::uint64_t preemptions_ = 0;
  SimStats stats_;
  // Controlled-mode state (all reset at run() entry).
  bool controlled_ = false;
  bool cancel_run_ = false;   // set to start unwinding every live fiber
  bool livelocked_ = false;
  bool cancelled_ = false;
  std::uint64_t progress_ = 0;  // bumped whenever a fiber does real work
  std::vector<PendingOp> trace_;
  std::vector<std::uintptr_t> obj_table_;  // raw obj -> dense per-run id

  friend struct FiberContext;
};

/// Convenience harness for the real-thread stress tests: spawns
/// std::threads, assigns dense platform thread ids, joins, rethrows the
/// first worker exception.
void run_real_threads(int nthreads, const std::function<void(int)>& body);

}  // namespace sprwl::sim
