// The snapshot-isolation spec checker (check/si.h) and its integration:
// unit tests of the SI axioms over hand-built histories, the
// bounded-exhaustive DFS acceptance run on SpRWL-mvcc, and the
// self-validation that an engine deliberately serving too-new snapshot
// reads (SpRWL-mvcc-broken) is caught, minimized, and round-tripped
// through the repro artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/artifact.h"
#include "check/explorer.h"
#include "check/harness.h"
#include "check/registry.h"
#include "check/si.h"

#include "../support/artifact_dir.h"

namespace sprwl::check {
namespace {

OpRecord write_op(int tid, std::uint64_t value, std::uint64_t version,
                  std::uint64_t at) {
  return {tid, true, at, at + 1, value, false, false, version};
}

OpRecord snap_op(int tid, std::uint64_t value, std::uint64_t pin,
                 std::uint64_t at) {
  return {tid, false, at, at + 1, value, false, true, pin};
}

TEST(SiSpec, CleanHistoryPasses) {
  History h;
  h.push_back(write_op(0, 1, 5, 0));
  h.push_back(write_op(0, 2, 9, 2));
  h.push_back(snap_op(1, 0, 3, 4));  // pinned before both writes
  h.push_back(snap_op(1, 1, 5, 6));  // pinned exactly at write 1
  h.push_back(snap_op(1, 2, 12, 8));  // pinned after both
  const SiResult r = check_si_history(h);
  EXPECT_TRUE(r.ok) << r.reason;
}

TEST(SiSpec, LostUpdateDetected) {
  History h;
  h.push_back(write_op(0, 1, 5, 0));
  h.push_back(write_op(1, 1, 9, 2));  // both writers produced 1
  const SiResult r = check_si_history(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("lost update"), std::string::npos) << r.reason;
}

TEST(SiSpec, CommitVersionOrderMustMatchValueOrder) {
  History h;
  h.push_back(write_op(0, 1, 9, 0));  // value 1 committed at version 9...
  h.push_back(write_op(1, 2, 5, 2));  // ...but value 2 at version 5
  const SiResult r = check_si_history(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("commit versions"), std::string::npos) << r.reason;
}

TEST(SiSpec, TooNewSnapshotReadDetected) {
  History h;
  h.push_back(write_op(0, 1, 5, 0));
  h.push_back(write_op(0, 2, 9, 2));
  h.push_back(snap_op(1, 2, 6, 4));  // pin 6 admits only write 1
  const SiResult r = check_si_history(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("too-new"), std::string::npos) << r.reason;
}

TEST(SiSpec, TooOldSnapshotReadDetected) {
  History h;
  h.push_back(write_op(0, 1, 5, 0));
  h.push_back(snap_op(1, 0, 8, 2));  // pin 8 must already see write 1
  const SiResult r = check_si_history(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("too-old"), std::string::npos) << r.reason;
}

TEST(SiSpec, NonSnapshotReadsAreOutOfScope) {
  History h;
  h.push_back(write_op(0, 1, 5, 0));
  // A registered (non-snapshot) read with a value SI could never justify:
  // Wing–Gong owns it, the SI checker must not judge it.
  h.push_back(OpRecord{1, false, 2, 3, 7, false, false, 0});
  const SiResult r = check_si_history(h);
  EXPECT_TRUE(r.ok) << r.reason;
}

// The issue's acceptance bar: bounded-exhaustive 2-thread DFS over the
// snapshot-reader variant (1 snapshot reader / 1 writer, retain_versions=2)
// terminates and exhausts with no violation — every interleaving of pin,
// publish, ring append, floor raise and fallback satisfies the SI axioms
// and leaves the non-snapshot sub-history linearizable.
TEST(SiSpec, AcceptanceDfsSpRWLMvccTwoThreads) {
  Workload w;
  w.threads = 2;
  w.writers = 1;
  ExploreOptions opt;
  const ExploreReport rep = explore_dfs(make_runner("SpRWL-mvcc", w), w, opt);
  EXPECT_TRUE(rep.exhausted) << "DFS did not exhaust the bounded tree";
  EXPECT_GT(rep.schedules, 1u);
  EXPECT_FALSE(rep.found_violation)
      << to_string(rep.verdict.kind) << ": " << rep.verdict.detail;
  ::testing::Test::RecordProperty(
      "mvcc_dfs_schedules", static_cast<int>(rep.schedules));
}

// Self-validation: an engine whose snapshot lookup is blinded
// (TooNewSnapshotEngine serves current memory past the pin) produces a
// too-new read on some interleaving. The checker must catch it as an SI
// violation, ddmin must minimize it, the artifact must round-trip with the
// snapshot workload fields intact, and the file-driven replay must
// reproduce the verdict.
TEST(SiSpec, MvccBrokenCaughtWithDeterministicRepro) {
  Workload w;
  w.threads = 2;
  w.writers = 1;
  // The artifact records the workload as handed to the explorer, so spell
  // out what the registry would derive: a single-cell snapshot workload
  // over a 2-deep ring. The lock name alone selects the blinded lookup.
  w.cells = 1;
  w.snapshot_reads = true;
  w.retain_versions = 2;
  ExploreOptions opt;
  opt.lock_name = "SpRWL-mvcc-broken";
  opt.artifact_dir = testutil::artifact_dir();
  opt.seed = 123;
  const RunFn run = make_runner("SpRWL-mvcc-broken", w);
  const ExploreReport rep = explore_dfs(run, w, opt);

  ASSERT_TRUE(rep.found_violation)
      << "the checker missed the too-new snapshot read";
  EXPECT_EQ(rep.verdict.kind, Verdict::kSiViolation) << rep.verdict.detail;
  EXPECT_NE(rep.verdict.detail.find("too-new"), std::string::npos)
      << rep.verdict.detail;
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);
  EXPECT_EQ(replay_trace(run, rep.repro).kind, rep.verdict.kind);

  ASSERT_FALSE(rep.artifact_path.empty());
  ReproArtifact a;
  ASSERT_TRUE(read_artifact(rep.artifact_path, &a)) << rep.artifact_path;
  EXPECT_EQ(a.lock, "SpRWL-mvcc-broken");
  EXPECT_EQ(a.choices, rep.repro);
  EXPECT_TRUE(a.workload.snapshot_reads);
  EXPECT_EQ(a.workload.retain_versions, 2u);
  const Verdict from_file =
      replay_trace(make_runner(a.lock, a.workload), a.choices);
  EXPECT_EQ(from_file.kind, Verdict::kSiViolation) << from_file.detail;
  std::remove(rep.artifact_path.c_str());
}

// Snapshot workload fields survive the artifact round-trip on their own
// (a repro may be driven by explicit settings rather than a registry name
// that re-applies them), and artifacts written before the fields existed
// still parse with "no snapshots" defaults.
TEST(SiSpec, ArtifactRoundTripsSnapshotWorkloadFields) {
  ReproArtifact a;
  a.lock = "SpRWL-mvcc";
  a.policy = "dfs";
  a.seed = 42;
  a.workload.snapshot_reads = true;
  a.workload.retain_versions = 3;
  a.violation = "none";
  const std::string path = write_artifact(a, testutil::artifact_dir());
  ReproArtifact b;
  ASSERT_TRUE(read_artifact(path, &b)) << path;
  EXPECT_TRUE(b.workload.snapshot_reads);
  EXPECT_EQ(b.workload.retain_versions, 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sprwl::check
