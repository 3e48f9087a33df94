// Controlled-scheduler semantics: determinism, trace replay, livelock
// detection, and clean run cancellation.
#include <gtest/gtest.h>

#include <vector>

#include "check/harness.h"
#include "check/policies.h"
#include "check/registry.h"
#include "common/platform.h"

namespace sprwl::check {
namespace {

bool same_trace(const std::vector<sim::PendingOp>& a,
                const std::vector<sim::PendingOp>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].fiber != b[i].fiber || a[i].kind != b[i].kind ||
        a[i].obj != b[i].obj) {
      return false;
    }
  }
  return true;
}

bool same_history(const History& a, const History& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tid != b[i].tid || a[i].is_write != b[i].is_write ||
        a[i].value != b[i].value || a[i].invoke != b[i].invoke ||
        a[i].response != b[i].response || a[i].torn != b[i].torn) {
      return false;
    }
  }
  return true;
}

TEST(ControlledSched, IdenticalPoliciesProduceIdenticalRuns) {
  const Workload w;
  const RunFn run = make_runner("SpRWL", w);
  // An exhausted ReplayPolicy always picks the lowest eligible fiber:
  // a fixed deterministic schedule.
  ReplayPolicy p1({}), p2({});
  const RunResult r1 = run(p1);
  const RunResult r2 = run(p2);
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  EXPECT_TRUE(same_trace(r1.trace, r2.trace));
  EXPECT_TRUE(same_history(r1.history, r2.history));
  EXPECT_EQ(r1.final_value, r2.final_value);
  EXPECT_FALSE(r1.trace.empty());
}

TEST(ControlledSched, RecordedChoicesReplayTheExactRun) {
  Workload w;
  w.threads = 4;
  w.writers = 2;
  w.ops_per_thread = 2;
  const RunFn run = make_runner("RWL", w);
  PctPolicy pct(/*seed=*/7);
  const RunResult original = run(pct);
  ASSERT_TRUE(original.completed);

  ReplayPolicy replay(original.choices());
  const RunResult again = run(replay);
  ASSERT_TRUE(again.completed);
  EXPECT_FALSE(replay.diverged());
  EXPECT_TRUE(same_trace(original.trace, again.trace));
  EXPECT_TRUE(same_history(original.history, again.history));
}

TEST(ControlledSched, DecisionPointsCoverTheLockApi) {
  const Workload w;
  const RunFn run = make_runner("SpRWL", w);
  ReplayPolicy p({});
  const RunResult r = run(p);
  ASSERT_TRUE(r.completed);
  bool saw_lock_point = false;
  for (const sim::PendingOp& op : r.trace) {
    if (op.kind >= SchedKind::kReadEnter &&
        op.kind <= SchedKind::kWriteExit) {
      saw_lock_point = true;
      EXPECT_NE(op.obj, 0u) << "lock-API points must carry the lock tag";
    }
  }
  EXPECT_TRUE(saw_lock_point);
}

// A lock whose write side never returns: the reader fibers finish, the
// writer pause-parks forever, and the no-progress bound must convert that
// into a livelock verdict instead of hanging or exhausting virtual time.
struct StuckWriteLock {
  template <class F>
  void read(int, F&& f) {
    std::forward<F>(f)();
  }
  template <class F>
  void write(int, F&&) {
    for (;;) platform::pause();
  }
};

TEST(ControlledSched, NoProgressBoundDetectsLivelock) {
  Workload w;
  w.threads = 3;
  w.writers = 1;
  w.no_progress_bound = 32;
  ReplayPolicy p({});
  const RunResult r =
      run_controlled(w, p, [] { return StuckWriteLock{}; });
  EXPECT_TRUE(r.livelock);
  EXPECT_FALSE(r.completed);
  const Verdict v = evaluate(r);
  EXPECT_EQ(v.kind, Verdict::kLivelock);
}

struct CancelAfter : sim::SchedulePolicy {
  explicit CancelAfter(std::size_t n) : n_(n) {}
  int pick(const sim::PickView& view) override {
    if (view.decision >= n_) return kCancelRun;
    return view.ops[0].fiber;
  }
  std::size_t n_;
};

TEST(ControlledSched, CancelledRunsUnwindCleanlyAndAreSkipped) {
  const Workload w;
  const RunFn run = make_runner("SpRWL", w);
  // Measure the run length, then cancel at several depths inside it,
  // including mid-critical-section ones; each run's fibers must unwind
  // without tripping the simulator's teardown.
  ReplayPolicy probe({});
  const std::size_t len = run(probe).trace.size();
  ASSERT_GT(len, 2u);
  for (std::size_t depth : {std::size_t{0}, len / 3, len / 2, len - 1}) {
    CancelAfter cancel(depth);
    const RunResult r = run(cancel);
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(evaluate(r).kind, Verdict::kSkipped);
  }
  // The world is intact afterwards: a fresh full run still passes.
  ReplayPolicy p({});
  const RunResult clean = run(p);
  EXPECT_TRUE(clean.completed);
  EXPECT_EQ(evaluate(clean).kind, Verdict::kOk);
}

}  // namespace
}  // namespace sprwl::check
