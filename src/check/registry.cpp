#include "check/registry.h"

#include <stdexcept>

#include "check/mutants.h"
#include "core/sprwl.h"
#include "dist/lock_service.h"
#include "locks/brlock.h"
#include "locks/mcs_rwlock.h"
#include "locks/passive_rwlock.h"
#include "locks/phase_fair.h"
#include "locks/posix_rwlock.h"
#include "locks/rwle.h"
#include "locks/tle.h"

namespace sprwl::check {
namespace {

core::Config sprwl_cfg(const Workload& w) {
  return core::Config::variant(core::SchedulingVariant::kFull, w.threads);
}

core::Config sharded_cfg(const Workload& w) {
  core::Config c = sprwl_cfg(w);
  // Split the checker threads over two simulated sockets so the sharded
  // scan really reads two summaries (one socket would degenerate to a
  // single-word scan, hiding cross-shard interleavings from the checker).
  c.socket_sharded_tracking = true;
  c.topology = sim::Topology::split(w.threads, 2);
  return c;
}

/// Bias on over a FRESH table of type `Table` per make_lock call (i.e. per
/// explored schedule), so no schedule's leftover slot leaks into the next.
/// Tables are tiny, so slot collisions and revocation racing a fast-path
/// publish are reachable within the schedule budget. `sharded` splits the
/// table over two sockets — tid 0 (the workload's reader) on socket 0, the
/// writer on socket 1, so the drain's skip of a clean REMOTE shard is on
/// every explored revocation — with uninstrumented readers, so the
/// sharded protocol is driven instead of bypassed by HTM-first reads.
template <class Table = bravo::ReaderTable>
core::Config bravo_cfg(const Workload& w, std::size_t slots,
                       bool sharded = false) {
  core::Config c = sprwl_cfg(w);
  c.bravo_bias = true;
  bravo::ReaderTable::Config tc;
  tc.max_threads = w.threads;
  tc.slots = slots;
  if (sharded) {
    c.reader_htm_first = false;
    tc.shard_by_socket = true;
    tc.topology = sim::Topology::split(w.threads, 2);
  }
  c.bravo_table = std::make_shared<Table>(tc);
  return c;
}

template <class EngineT = htm::Engine, class MakeLock>
RunFn bind(const Workload& w, MakeLock make_lock) {
  return [w, make_lock](sim::SchedulePolicy& policy) {
    return run_controlled<EngineT>(w, policy, make_lock);
  };
}

}  // namespace

std::vector<std::string> checked_locks() {
  return {"SpRWL",  "SpRWL-unins", "SpRWL-vsgl", "SpRWL-snzi",
          "SpRWL-sharded", "SpRWL-bravo", "SpRWL-bravo-numa",
          "SpRWL-timeout", "SpRWL-mvcc", "SpRWL-lease",
          "TLE",    "RW-LE",       "RWL",        "BRLock",
          "PhaseFair", "MCS-RW",   "PRWL"};
}

namespace {

// MVCC snapshot readers: the reader side goes through read_snapshot()
// against an engine retaining a small per-line ring, and evaluate() judges
// the history with the SI spec (si.h). Uninstrumented writers' scans never
// see these readers at all — the interesting interleavings are version
// pins racing commits, ring wrap, and the SGL-fallback pin guard, all of
// which the small ring (2 entries) keeps reachable in a 2-thread DFS.
Workload mvcc_workload(const Workload& w) {
  Workload sw = w;
  sw.snapshot_reads = true;
  if (sw.retain_versions == 0) sw.retain_versions = 2;
  return sw;
}

core::Config mvcc_cfg(const Workload& w) {
  core::Config c = sprwl_cfg(w);
  // Drive the snapshot path itself, not the HTM-first reader shortcut.
  c.reader_htm_first = false;
  return c;
}

// The distributed tier's lease + seqlock protocol (dist/lock_service.h).
// One node per checker thread, so every write is a full cross-node lease
// handoff (grant -> claim -> publish -> release) and readers are always
// remote optimists. The term is effectively infinite: controlled
// scheduling ignores clocks, so the virtual-time expiry fence is not
// sound here (DESIGN.md §15) — handoff is by explicit release, and the
// checker's target is the grant serialization and the seqlock protocol.
dist::LeasedLock::Config lease_cfg(const Workload& w) {
  dist::LeasedLock::Config c;
  c.topology = sim::Topology::split_nodes(w.threads, w.threads);
  c.max_threads = w.threads;
  c.lease.term = ~0ULL / 2;
  c.lease.backoff_base = 64;
  c.lease.backoff_max = 256;
  c.local = core::Config::variant(core::SchedulingVariant::kFull, w.threads);
  return c;
}

}  // namespace

RunFn make_runner(const std::string& name, const Workload& w) {
  if (name == "SpRWL") {
    return bind(w, [w] { return core::SpRWLock(sprwl_cfg(w)); });
  }
  if (name == "SpRWL-unins") {
    return bind(w, [w] {
      core::Config c = sprwl_cfg(w);
      c.reader_htm_first = false;
      return core::SpRWLock(c);
    });
  }
  if (name == "SpRWL-vsgl") {
    return bind(w, [w] {
      core::Config c = sprwl_cfg(w);
      c.versioned_sgl = true;
      return core::SpRWLock(c);
    });
  }
  if (name == "SpRWL-snzi") {
    return bind(w, [w] {
      core::Config c = sprwl_cfg(w);
      c.tracking = core::Tracking::kSnzi;
      return core::SpRWLock(c);
    });
  }
  if (name == "SpRWL-sharded") {
    return bind(w, [w] { return core::SpRWLock(sharded_cfg(w)); });
  }
  if (name == "SpRWL-bravo") {
    // Global reader bias over an 8-slot (single-line) shared table; the
    // bias starts on, so the checker drives the full fast-path/revocation/
    // re-bias protocol, including slot-collision fallbacks.
    return bind(w, [w] { return core::SpRWLock(bravo_cfg(w, 8)); });
  }
  if (name == "SpRWL-bravo-broken") {
    // Revocation-drain self-validation: a ONE-slot table whose drain skips
    // the last slot (SkipLastSlotTable) drains nothing, so a fast-path
    // reader in slot 0 survives revocation and a writer commits over its
    // snapshot. Uninstrumented readers, so the fast path is taken.
    // Accepted by make_runner only, never listed as healthy.
    return bind(w, [w] {
      core::Config c = bravo_cfg<SkipLastSlotTable>(w, 1);
      c.reader_htm_first = false;
      return core::SpRWLock(c);
    });
  }
  if (name == "SpRWL-bravo-numa") {
    // Socket-sharded reader table (4 slots per shard, each shard + summary
    // on its own line): the checker drives fast-path publishes against the
    // summary-gated drain, including the Dekker race between a reader's
    // summary bump and the writer's clean-shard skip.
    return bind(w, [w] { return core::SpRWLock(bravo_cfg(w, 4, true)); });
  }
  if (name == "SpRWL-bravo-numa-broken") {
    // Sharded-drain self-validation: the drain skips shard 0
    // (SkipShardTable), where the workload's reader tid 0 homes, so its
    // registration survives revocation and a writer commits over its
    // snapshot. Accepted by make_runner only, never listed as healthy.
    return bind(w, [w] {
      return core::SpRWLock(bravo_cfg<SkipShardTable>(w, 1, true));
    });
  }
  if (name == "SpRWL-timeout") {
    // Deadline-aware readers over the bravo fast path. Uninstrumented
    // (no HTM-first) so the reader-table protocol is actually driven, and
    // every timed read is an extra schedule decision point: the budgets mix
    // an immediately expiring deadline (the cancellation unwind — occupy,
    // expire, release — runs on every schedule) with a comfortable one (the
    // acquired path runs too). DFS over this variant is the regression
    // net for phantom-reader bugs in the unwind.
    Workload tw = w;
    tw.timed_reads = true;
    tw.read_deadlines = {1, 400'000};
    return bind(tw, [tw] {
      core::Config c = bravo_cfg(tw, 8);
      c.reader_htm_first = false;
      return core::SpRWLock(c);
    });
  }
  if (name == "SpRWL-timeout-broken") {
    // Cancellation-unwind self-validation: the timed bias read's timeout
    // path leaks its ReaderTable slot (LeakOnCancelTable). The next
    // writer's revocation drain waits on the ghost forever — caught as a
    // livelock verdict. One slot + an immediately expiring budget make the
    // leak unconditional. Accepted by make_runner only, never listed as
    // healthy.
    Workload tw = w;
    tw.timed_reads = true;
    tw.read_deadlines = {1};
    return bind(tw, [tw] {
      core::Config c = bravo_cfg<LeakOnCancelTable>(tw, 1);
      c.reader_htm_first = false;
      return core::SpRWLock(c);
    });
  }
  if (name == "SpRWL-mvcc") {
    const Workload sw = mvcc_workload(w);
    return bind(sw, [sw] { return core::SpRWLock(mvcc_cfg(sw)); });
  }
  if (name == "SpRWL-mvcc-broken") {
    // SI-checker self-validation: the engine's snapshot lookup is blinded
    // (TooNewSnapshotEngine) — a pinned reader racing a commit observes
    // the post-commit value, a too-new read that violates
    // read-your-snapshot. Accepted by make_runner only, never listed as
    // healthy.
    Workload sw = mvcc_workload(w);
    // One cell: a blinded reader that straddles a multi-cell commit also
    // produces a torn view, which evaluate() would classify ahead of the
    // SI check. A single word leaves exactly one reachable anomaly — the
    // too-new read — so the run validates the SI checker specifically.
    sw.cells = 1;
    return bind<TooNewSnapshotEngine>(
        sw, [sw] { return core::SpRWLock(mvcc_cfg(sw)); });
  }
  if (name == "SpRWL-lease") {
    return bind(w, [w] { return dist::LeasedLock(lease_cfg(w)); });
  }
  if (name == "SpRWL-lease-broken") {
    // Stale-lease-read self-validation: the optimistic reader skips the
    // version re-validation after its copy (SkipValidationLease), so a
    // read straddling a claim/publish window is accepted — the torn/stale
    // observation the lease tier's whole read protocol exists to reject.
    // Accepted by make_runner only, never listed as healthy.
    return bind(w, [w] { return SkipValidationLease(lease_cfg(w)); });
  }
  if (name == "SpRWL-sharded-broken") {
    // The broken scan under the socket-major layout: BlindScanFlags skips
    // the count of reader tid 0's socket, so a writer can commit over that
    // socket's live readers. Accepted by make_runner only.
    return bind(w, [w] {
      core::Config c = sharded_cfg(w);
      c.reader_htm_first = false;
      return core::SpRWLock(c, &core::make_tracker<BlindScanFlags>);
    });
  }
  if (name == broken_lock_name()) {
    // Uninstrumented readers + a commit scan that skips reader tid 0
    // (BlindScanFlags): a writer can commit all cells while that reader is
    // mid-snapshot. The workload keeps tid 0 a reader for any writers <
    // threads.
    return bind(w, [w] {
      core::Config c = sprwl_cfg(w);
      c.reader_htm_first = false;
      return core::SpRWLock(c, &core::make_tracker<BlindScanFlags>);
    });
  }
  if (name == "TLE") {
    return bind(w, [w] {
      locks::TLELock::Config c;
      c.max_threads = w.threads;
      return locks::TLELock(c);
    });
  }
  if (name == "RW-LE") {
    return bind(w, [w] {
      locks::RWLELock::Config c;
      c.max_threads = w.threads;
      return locks::RWLELock(c);
    });
  }
  if (name == "RWL") {
    return bind(w, [w] { return locks::PosixRWLock(w.threads); });
  }
  if (name == "BRLock") {
    return bind(w, [w] { return locks::BRLock(w.threads); });
  }
  if (name == "PhaseFair") {
    return bind(w, [w] { return locks::PhaseFairRWLock(w.threads); });
  }
  if (name == "MCS-RW") {
    return bind(w, [w] { return locks::McsRWLock(w.threads); });
  }
  if (name == "PRWL") {
    return bind(w, [w] { return locks::PassiveRWLock(w.threads); });
  }
  throw std::invalid_argument("unknown checker lock: " + name);
}

}  // namespace sprwl::check
