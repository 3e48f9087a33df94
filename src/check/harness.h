// Controlled-schedule run harness: one workload run under one policy.
//
// Each run is hermetic — a fresh HTM engine, a fresh lock instance, fresh
// shared cells and a fresh Simulator — so a schedule is a pure function of
// the policy's decisions. That is the property the DFS prefix replay, the
// trace minimizer and the repro artifacts all rest on.
//
// The workload is the library's standard invariant carrier (same shape as
// fault::run_chaos): writers increment a multi-cell counter under the
// write lock, readers snapshot it under the read lock and flag torn views.
// Every operation is recorded as an OpRecord for the linearizability
// checker; lost updates and torn reads also fall out of the history
// structurally (see linearizability.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/history.h"
#include "check/linearizability.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "sim/schedule_policy.h"
#include "sim/simulator.h"

namespace sprwl::check {

struct Workload {
  int threads = 3;
  /// The last `writers` thread ids write; the rest read (the library's
  /// chaos-harness convention — tid 0 stays a reader, which keeps SpRWL's
  /// duration sampler on the reader EMA).
  int writers = 1;
  int ops_per_thread = 1;
  int cells = 4;
  /// Forwarded to sim::SimConfig (see there). no_progress_bound = 0 keeps
  /// the simulator's auto-derivation (64 + 16 * threads): queue-lock
  /// handoff chains grow with the thread count, so a flat constant starts
  /// misreading healthy MCS/phase-fair handoffs as livelock at 8+ threads.
  std::size_t max_decisions = 4000;
  int no_progress_bound = 0;
  /// Deadline-aware reads: readers acquire via try_read_for instead of
  /// read(), cycling through `read_deadlines` (budgets in cycles) by op
  /// index. A timed-out read records nothing in the history — the
  /// linearizability checker judges only sections that ran. Ignored for
  /// locks without timed variants.
  bool timed_reads = false;
  std::vector<std::uint64_t> read_deadlines;
  /// Snapshot-isolation readers: readers acquire via read_snapshot()
  /// (locks without one fall back to read()), the engine retains
  /// `retain_versions` prior versions per line, and every op records its
  /// version-clock stamp so evaluate() can judge snapshot reads against
  /// the SI spec (si.h) instead of Wing–Gong.
  bool snapshot_reads = false;
  std::uint32_t retain_versions = 0;
  /// Checker self-validation ONLY: forwards
  /// EngineConfig::broken_snapshot_too_new — snapshot reads return current
  /// memory even when the line is newer than the pin, the too-new read the
  /// SI checker must catch.
  bool broken_snapshot = false;
};

struct RunResult {
  bool completed = false;  ///< every fiber ran to the end of its body
  bool livelock = false;   ///< no-progress bound / decision cap verdict
  bool cancelled = false;  ///< run abandoned (policy prune or livelock)
  std::string error;       ///< first fiber exception, if any
  History history;
  std::vector<sim::PendingOp> trace;  ///< the decisions actually taken
  std::uint64_t final_value = 0;

  /// The fiber-id choice sequence, the replayable essence of the trace.
  std::vector<int> choices() const {
    std::vector<int> out;
    out.reserve(trace.size());
    for (const sim::PendingOp& op : trace) out.push_back(op.fiber);
    return out;
  }
};

struct Verdict {
  enum Kind {
    kOk = 0,
    kSkipped,          ///< run abandoned (e.g. DFS prune): nothing to judge
    kTorn,             ///< reader saw a half-applied write
    kLostUpdate,       ///< final memory / write values miss an increment
    kNonLinearizable,  ///< history admits no legal linearization
    kSiViolation,      ///< snapshot read broke the SI axioms (see si.h)
    kLivelock,         ///< no progress within the bound (incl. deadlock)
    kError,            ///< a fiber threw (lock bug or harness failure)
  };
  Kind kind = kOk;
  std::string detail;

  bool violation() const noexcept { return kind != kOk && kind != kSkipped; }
};

const char* to_string(Verdict::Kind k) noexcept;

/// A closed-over workload+lock combination the explorer can run repeatedly
/// under different policies (see registry.h for the named instances).
using RunFn = std::function<RunResult(sim::SchedulePolicy&)>;

/// Judges one run: structural invariants, then the Wing–Gong check.
Verdict evaluate(const RunResult& r);

/// Runs the workload once under `policy`. `make_lock` constructs a fresh
/// lock instance (returned by value; C++17 elision supports non-movable
/// locks) and is invoked once per run after the engine is installed.
template <class MakeLock>
RunResult run_controlled(const Workload& w, sim::SchedulePolicy& policy,
                         MakeLock&& make_lock) {
  struct alignas(64) Cell {
    htm::Shared<std::uint64_t> v;
  };

  htm::EngineConfig ec;
  ec.capacity = htm::kUnbounded;
  ec.max_threads = w.threads;
  // Small table: a fresh engine per explored schedule must not pay the
  // default 2^20-entry version table.
  ec.table_bits = 10;
  ec.retain_versions = w.retain_versions;
  ec.broken_snapshot_too_new = w.broken_snapshot;
  htm::Engine engine(ec);
  htm::EngineScope escope(engine);

  auto lock = make_lock();
  std::vector<Cell> cells(static_cast<std::size_t>(w.cells));

  RunResult res;
  res.history.reserve(
      static_cast<std::size_t>(w.threads) *
      static_cast<std::size_t>(w.ops_per_thread));
  std::uint64_t clock = 0;  // logical invoke/response stamps

  sim::SimConfig sc;
  sc.policy = &policy;
  sc.max_decisions = w.max_decisions;
  sc.no_progress_bound = w.no_progress_bound;
  sim::Simulator sim(sc);
  try {
    sim.run(w.threads, [&](int tid) {
      const bool is_writer = tid >= w.threads - w.writers;
      for (int i = 0; i < w.ops_per_thread; ++i) {
        if (is_writer) {
          std::uint64_t v = 0;
          const std::uint64_t invoke = ++clock;
          lock.write(1, [&] {
            v = cells[0].v.load() + 1;
            fault::checkpoint(SchedKind::kWriteBody, &lock);
            for (int c = 0; c < w.cells; ++c) {
              cells[static_cast<std::size_t>(c)].v.store(v);
            }
          });
          // Commit version of the section's last data publish (HTM: the
          // commit's write version; SGL fallback: the last store's) — the
          // SI spec orders writers by it. The section-pinned accessor, not
          // last_commit_version(): by the time write() returns, the lock
          // has already published its writer-flag clear through Shared<T>,
          // which draws a version of its own.
          res.history.push_back({tid, true, invoke, ++clock, v, false, false,
                                 w.snapshot_reads
                                     ? engine.last_section_version()
                                     : engine.last_commit_version()});
        } else {
          std::uint64_t v = 0;
          bool torn = false;
          std::uint64_t pin = htm::Engine::kNoSnapshot;
          const std::uint64_t invoke = ++clock;
          const auto body = [&] {
            // Per-attempt reset: an aborted HTM attempt must not leak its
            // observations into the committed one. The pin is kNoSnapshot
            // on non-snapshot runs AND on a snapshot section's registered
            // re-run after a SnapshotMiss — exactly the runs Wing–Gong
            // (not the SI spec) must judge.
            v = cells[0].v.load();
            torn = false;
            pin = engine.snapshot_version();
            fault::checkpoint(SchedKind::kReadBody, &lock);
            for (int c = 1; c < w.cells; ++c) {
              torn |= cells[static_cast<std::size_t>(c)].v.load() != v;
            }
          };
          bool acquired = true;
          bool timed = false;
          bool snap = false;
          if constexpr (requires {
                          lock.try_read_for(0, std::uint64_t{1}, [] {});
                        }) {
            if (w.timed_reads && !w.read_deadlines.empty()) {
              timed = true;
              const std::uint64_t budget =
                  w.read_deadlines[static_cast<std::size_t>(i) %
                                   w.read_deadlines.size()];
              acquired = lock.try_read_for(0, budget, body) ==
                         locks::AcquireResult::kAcquired;
            }
          }
          if constexpr (requires { lock.read_snapshot(0, [] {}); }) {
            if (!timed && w.snapshot_reads) {
              snap = true;
              lock.read_snapshot(0, body);
            }
          }
          if (!timed && !snap) lock.read(0, body);
          // A timed-out read ran no section: it contributes nothing the
          // linearizability checker could judge.
          if (acquired) {
            const bool pinned = pin != htm::Engine::kNoSnapshot;
            res.history.push_back({tid, false, invoke, ++clock, v, torn,
                                   pinned, pinned ? pin : 0});
          }
        }
      }
    });
    res.completed = !sim.cancelled();
  } catch (const std::exception& e) {
    res.error = e.what();
  }
  res.livelock = sim.livelocked();
  res.cancelled = sim.cancelled();
  res.trace = sim.decision_trace();
  res.final_value = cells[0].v.raw_load();
  return res;
}

}  // namespace sprwl::check
