#include "check/explorer.h"

#include <algorithm>
#include <utility>

#include "check/policies.h"

namespace sprwl::check {
namespace {

std::size_t expected_decisions(const Workload& w) {
  // Rough per-run decision count for PCT change-point sampling: each op
  // crosses a handful of sched points plus retries. Only the order of
  // magnitude matters.
  return static_cast<std::size_t>(w.threads) *
             static_cast<std::size_t>(w.ops_per_thread) * 32 +
         16;
}

void finalize_violation(const RunFn& run, const Workload& w,
                        const ExploreOptions& opt, const char* policy_name,
                        const RunResult& rr, const Verdict& v,
                        ExploreReport* rep) {
  rep->found_violation = true;
  rep->verdict = v;
  rep->repro =
      minimize_trace(run, rr.choices(), v.kind, opt.minimize_budget);
  if (!opt.artifact_dir.empty()) {
    ReproArtifact a;
    a.lock = opt.lock_name;
    a.policy = policy_name;
    a.seed = opt.seed;
    a.workload = w;
    a.violation = std::string(to_string(v.kind)) + ": " + v.detail;
    a.choices = rep->repro;
    rep->artifact_path = write_artifact(a, opt.artifact_dir);
  }
}

}  // namespace

Verdict replay_trace(const RunFn& run, const std::vector<int>& choices) {
  ReplayPolicy p(choices);
  return evaluate(run(p));
}

std::vector<int> minimize_trace(const RunFn& run, std::vector<int> cur,
                                Verdict::Kind kind, int budget) {
  std::size_t chunk = cur.size() / 2;
  if (chunk == 0) chunk = 1;
  while (budget > 0 && !cur.empty()) {
    std::size_t i = 0;
    while (i < cur.size() && budget > 0) {
      std::vector<int> cand;
      cand.reserve(cur.size() - 1);
      cand.insert(cand.end(), cur.begin(),
                  cur.begin() + static_cast<std::ptrdiff_t>(i));
      const std::size_t cut = std::min(i + chunk, cur.size());
      cand.insert(cand.end(),
                  cur.begin() + static_cast<std::ptrdiff_t>(cut), cur.end());
      --budget;
      if (replay_trace(run, cand).kind == kind) {
        cur = std::move(cand);  // keep position: the next chunk shifted in
      } else {
        i += chunk;
      }
    }
    if (chunk == 1) break;
    chunk /= 2;
  }
  return cur;
}

ExploreReport explore_dfs(const RunFn& run, const Workload& w,
                          const ExploreOptions& opt) {
  DfsPolicy policy(opt.sleep_sets);
  ExploreReport rep;
  for (std::uint64_t r = 0; r < opt.max_runs; ++r) {
    const RunResult rr = run(policy);
    if (policy.pruned()) {
      ++rep.pruned;
    } else {
      ++rep.schedules;
      const Verdict v = evaluate(rr);
      if (v.violation()) {
        finalize_violation(run, w, opt, "dfs", rr, v, &rep);
        return rep;
      }
    }
    if (!policy.advance()) {
      rep.exhausted = true;
      break;
    }
  }
  return rep;
}

ExploreReport explore_pct(const RunFn& run, const Workload& w,
                          const ExploreOptions& opt) {
  ExploreReport rep;
  std::size_t expected = expected_decisions(w);
  rep.calibrated_decisions = expected;

  // Calibration phase: a few runs under the static heuristic, measuring how
  // many decisions this (lock, workload) really takes per run. The runs are
  // judged like any other — a violation here ends the exploration the same
  // way — and count toward max_runs.
  const std::uint64_t calib = std::min<std::uint64_t>(
      opt.calibration_runs > 0
          ? static_cast<std::uint64_t>(opt.calibration_runs)
          : 0,
      opt.max_runs);
  if (calib > 0) {
    std::vector<std::size_t> lengths;
    lengths.reserve(static_cast<std::size_t>(calib));
    PctPolicy policy(opt.seed, opt.pct_depth, expected);
    for (std::uint64_t r = 0; r < calib; ++r) {
      const RunResult rr = run(policy);
      ++rep.schedules;
      lengths.push_back(rr.trace.size());
      const Verdict v = evaluate(rr);
      if (v.violation()) {
        finalize_violation(run, w, opt, "pct", rr, v, &rep);
        return rep;
      }
    }
    // Median of the measured lengths: robust against the odd livelocked
    // run that burnt the whole decision budget. The stall allowance is
    // added on top: a run can extend past its useful work by up to
    // no_progress_bound verification rounds (one decision per live fiber
    // each) before the livelock verdict, and change points must be able to
    // land inside that window —
    // strict-priority starvation of a fair lock's spin-waiter is only
    // broken by a change point, so a horizon that stops at the median
    // would turn every late stall into a guaranteed false livelock.
    std::sort(lengths.begin(), lengths.end());
    const std::size_t median = lengths[lengths.size() / 2];
    if (median > 0) {
      sim::SimConfig sc;
      sc.no_progress_bound = w.no_progress_bound;
      expected = median +
                 static_cast<std::size_t>(sc.resolved_no_progress_bound(w.threads));
    }
    rep.calibrated_decisions = expected;
  }

  PctPolicy policy(opt.seed, opt.pct_depth, expected);
  for (std::uint64_t r = rep.schedules; r < opt.max_runs; ++r) {
    const RunResult rr = run(policy);
    ++rep.schedules;
    const Verdict v = evaluate(rr);
    if (v.violation()) {
      finalize_violation(run, w, opt, "pct", rr, v, &rep);
      return rep;
    }
  }
  return rep;
}

}  // namespace sprwl::check
