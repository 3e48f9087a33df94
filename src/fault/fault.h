// Deterministic fault injection for the virtual-time simulator.
//
// SpRWL's headline claim — uninstrumented readers are immune to HTM's
// best-effort failure modes — is only falsifiable if the reproduction can
// *produce* those failures on demand: a reader descheduled mid-critical-
// section with its state flag raised, an interrupt storm that aborts every
// transaction in flight, a thread whose effective HTM capacity collapses
// under SMT pressure, a syscall in the middle of a speculated reader.
//
// A FaultPlan is a seeded, declarative schedule of such events. The
// FaultInjector executes it at *checkpoints*: well-known points in the lock
// algorithms (entry/body/exit of read and write critical sections) call
// fault::checkpoint(point), which is a single pointer check when no
// injector is installed — production code pays one predictable branch.
// Everything the injector does is driven by virtual time and seeded RNG
// streams, so any failing schedule replays bit-identically from its seed
// (the SPRWL_SEED environment override, env_seed(), standardizes that for
// chaos and stress tests).
//
// Injection mechanisms and what they model:
//  * PreemptSpec    — sim::Simulator::deschedule_current_until(): the OS
//                     deschedules the fiber for a bounded virtual interval;
//                     an in-flight transaction additionally aborts
//                     (hardware kills transactions on context switches).
//  * AbortStormSpec — ramps htm::Engine's spurious-abort rate up and back
//                     down across a window (timer/IPI interrupt storm).
//  * CapacityJitterSpec — per-thread capacity rescaling (an SMT sibling or
//                     cache-polluting co-runner appears and disappears).
//  * SyscallSpec    — htm::Engine::syscall(): aborts the enclosing
//                     transaction, charges ring-transition cost otherwise.
//
// The injector is a sim-mode instrument: checkpoints may deschedule fibers
// and throw AbortException through transactional code, exactly like the
// events they model. Install with FaultScope around a Simulator::run().
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/platform.h"
#include "common/rng.h"
#include "common/trace.h"
#include "htm/engine.h"
#include "sim/simulator.h"

namespace sprwl::fault {

/// Deschedule a fiber at a checkpoint for a bounded virtual interval.
struct PreemptSpec {
  SchedKind point = SchedKind::kReadBody;
  int tid = -1;                    ///< fiber to preempt; -1 = any fiber
  std::uint64_t not_before = 0;    ///< fire only at now() >= not_before
  std::uint64_t duration = 200'000;  ///< descheduled interval, cycles
  int count = 1;                   ///< remaining firings; 0 = spent
};

/// Every checkpoint execution inside [from, until) performs a syscall.
/// Window semantics (not a count) so that each HTM retry of the same
/// section hits the syscall again — which is what defeats speculation.
struct SyscallSpec {
  SchedKind point = SchedKind::kReadBody;
  int tid = -1;
  std::uint64_t from = 0;
  std::uint64_t until = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t cost = 1'500;      ///< ring transition + kernel work, cycles
};

/// Spurious-abort rate ramps linearly 0 -> peak_rate -> 0 across the
/// window (a triangular interrupt storm). Inactive when until <= from.
struct AbortStormSpec {
  std::uint64_t from = 0;
  std::uint64_t until = 0;
  double peak_rate = 0.0;
};

/// While active, each checkpoint re-draws the thread's HTM capacity as a
/// uniform fraction of the base profile in [min_scale, max_scale].
/// Inactive when until <= from.
struct CapacityJitterSpec {
  std::uint64_t from = 0;
  std::uint64_t until = 0;
  double min_scale = 0.25;
  double max_scale = 1.0;
};

/// Node-scoped crash-stop (distributed tier, src/dist/): at the first
/// matching checkpoint executed at now() >= at by any fiber of `node`, the
/// whole node dies — that fiber and every other fiber of the node raise
/// NodeCrashed at their next non-transactional checkpoint. Nothing is
/// cleaned up: a held lease is NOT released (it must expire in virtual
/// time) and half-published payloads stay torn for the next holder's
/// recovery to repair — exactly the crash-stop model lease protocols are
/// specified against.
struct NodeCrashSpec {
  int node = 0;
  std::uint64_t at = 0;  ///< earliest virtual time; fires once
  bool fired = false;
};

/// Node-scoped partition: while now() is inside [from, until), messages
/// between `node` and the lease service stall — the dist layer's
/// acquire/renew paths consult FaultInjector::partition_heal_time() and
/// wait out the heal, which is what pushes a renewal past its lease's
/// expiry (the stale-holder fencing case). Inactive when until <= from.
struct PartitionSpec {
  int node = 0;
  std::uint64_t from = 0;
  std::uint64_t until = 0;
};

/// Raised at a checkpoint by a fiber whose node crash-stopped. Deliberately
/// NOT a std::exception: generic handlers must not swallow a crash — only
/// the dist chaos/bench harnesses, which model per-node failure, catch it.
struct NodeCrashed {
  int node = 0;
};

/// A complete seeded fault schedule.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<PreemptSpec> preempts;
  std::vector<SyscallSpec> syscalls;
  AbortStormSpec storm;
  CapacityJitterSpec jitter;
  /// Node-scoped events; only meaningful with a multi-node topology.
  std::vector<NodeCrashSpec> crashes;
  std::vector<PartitionSpec> partitions;
  /// Maps fiber ids to nodes for the node-scoped events (defaults to a
  /// single node, under which crashes/partitions target node 0 = everyone).
  sim::Topology topology;

  /// Randomized chaos schedule over [0, horizon) for `threads` fibers:
  /// several preemptions at random points (biased toward reader bodies —
  /// the adversarial case for SpRWL), an interrupt storm across a random
  /// sub-window, capacity jitter, and one syscall-window reader.
  /// Deterministic given the seed.
  static FaultPlan chaos(std::uint64_t seed, int threads,
                         std::uint64_t horizon);

  /// Randomized node-scoped chaos over [0, horizon): one node crash at a
  /// random time, usually a partition window against another node, plus a
  /// few preemptions biased into lease renewal/expiry windows.
  /// Deterministic given the seed.
  static FaultPlan chaos_nodes(std::uint64_t seed, std::uint64_t horizon,
                               const sim::Topology& topo);
};

struct FaultStats {
  std::uint64_t preemptions = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t capacity_jitters = 0;
  std::uint64_t node_crashes = 0;     ///< crash specs that fired
  std::uint64_t crash_kills = 0;      ///< fibers killed by a node crash
  std::uint64_t partition_stalls = 0; ///< dist ops stalled by a partition
  double peak_applied_rate = 0.0;  ///< highest storm rate actually applied
};

class FaultInjector {
 public:
  /// `sim` enables preemptions (may be null: preempt specs are skipped);
  /// `engine` enables storms, jitter and syscalls (may be null likewise).
  FaultInjector(FaultPlan plan, sim::Simulator* sim, htm::Engine* engine);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Executes the plan at one checkpoint. May deschedule the calling fiber
  /// and may throw htm::AbortException (via Engine) when the modelled event
  /// kills an in-flight transaction — callers inside transactional code
  /// must let that propagate, exactly as for any transactional access.
  void on_point(SchedKind p);

  /// True once a NodeCrashSpec for `node` has fired. The dist layer also
  /// checks this directly (e.g. before serving a cross-node read from a
  /// dead node's memory would make no sense to model).
  bool node_is_crashed(int node) const noexcept {
    return node >= 0 && node < static_cast<int>(crashed_.size()) &&
           crashed_[static_cast<std::size_t>(node)];
  }

  /// Heal time of the partition currently stalling `node`'s service
  /// messages, or 0 when none is active at `now`. Callers on the dist
  /// renewal/acquire path wait_until() the heal, modelling the stalled RPC.
  std::uint64_t partition_heal_time(int node, std::uint64_t now) noexcept;

  const FaultStats& stats() const noexcept { return stats_; }
  const FaultPlan& plan() const noexcept { return plan_; }

  static FaultInjector* current() noexcept {
    return g_current.load(std::memory_order_acquire);
  }
  static void set_current(FaultInjector* f) noexcept {
    g_current.store(f, std::memory_order_release);
  }

 private:
  void apply_storm(std::uint64_t now);
  void apply_jitter(std::uint64_t now, int tid);
  bool apply_preempts(SchedKind p, std::uint64_t now, int tid);
  void apply_syscalls(SchedKind p, std::uint64_t now, int tid);
  void apply_crashes(std::uint64_t now, int tid);

  FaultPlan plan_;
  sim::Simulator* sim_;
  htm::Engine* engine_;
  FaultStats stats_;
  std::vector<Rng> rngs_;          // one deterministic stream per thread
  std::vector<bool> jittered_;     // threads holding a jittered capacity
  std::vector<bool> crashed_;      // nodes that crash-stopped
  double applied_rate_ = -1.0;     // last storm rate pushed to the engine
  double base_rate_ = 0.0;         // engine's configured rate at install

  static inline std::atomic<FaultInjector*> g_current{nullptr};
};

/// Checkpoint hook called by lock implementations and chaos workloads at
/// the decision points kReadEnter..kLeaseExpire of SchedKind. Enter/Exit
/// points sit at a lock's dangerous windows (reader flag raised but body
/// not yet run / body done but flag not yet cleared), Body points inside
/// the critical section itself, and the lease points at every dist lease
/// acquire/renew attempt and expiry observation (src/dist/lease.h). Each is
/// a controlled-scheduler decision point, then one predictable branch when
/// no injector is installed. `obj` identifies the lock instance for the
/// controlled scheduler's independence analysis (src/check/); it is
/// ignored by the fault injector.
inline void checkpoint(SchedKind p, const void* obj) {
  platform::sched_point(p, obj);
  if (FaultInjector* f = FaultInjector::current()) f->on_point(p);
}
inline void checkpoint(SchedKind p) { checkpoint(p, nullptr); }

/// Dist-layer queries against the installed injector; benign no-ops when
/// none is installed (the common, fault-free case).
inline bool node_crashed(int node) noexcept {
  FaultInjector* f = FaultInjector::current();
  return f != nullptr && f->node_is_crashed(node);
}
inline std::uint64_t partition_heal(int node, std::uint64_t now) noexcept {
  FaultInjector* f = FaultInjector::current();
  return f != nullptr ? f->partition_heal_time(node, now) : 0;
}

/// RAII installer, mirroring htm::EngineScope / trace::TracerScope.
class FaultScope {
 public:
  explicit FaultScope(FaultInjector& f) noexcept
      : prev_(FaultInjector::current()) {
    FaultInjector::set_current(&f);
  }
  ~FaultScope() { FaultInjector::set_current(prev_); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultInjector* prev_;
};

/// Seed-replay discipline for chaos/stress tests: returns the SPRWL_SEED
/// environment value when set, else `fallback`. Failing tests print the
/// seed they ran with, so `SPRWL_SEED=<n> ctest -R ...` reproduces any
/// failing schedule bit-identically.
std::uint64_t env_seed(std::uint64_t fallback);

}  // namespace sprwl::fault
