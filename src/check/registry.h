// Named lock configurations for the checker: every lock in the library
// (all src/locks/ baselines, the elision locks, and the SpRWL variants)
// exposed as a RunFn over the standard counter workload, so tests, CI and
// the check_schedules CLI address them uniformly by name.
#pragma once

#include <string>
#include <vector>

#include "check/harness.h"

namespace sprwl::check {

/// Production lock names, in display order: SpRWL (kFull), SpRWL-unins
/// (uninstrumented readers), SpRWL-vsgl (versioned SGL), SpRWL-snzi,
/// SpRWL-sharded (per-socket tracking), SpRWL-bravo (global reader bias),
/// SpRWL-timeout (deadline-aware reads over the bravo fast path),
/// SpRWL-mvcc (snapshot-isolation readers over a version-retaining engine,
/// judged by the SI spec), TLE, RW-LE, RWL (POSIX-style), BRLock,
/// PhaseFair, MCS-RW, PRWL.
std::vector<std::string> checked_locks();

/// The deliberately broken SpRWL variant (commit-time reader scan skips
/// tid 0): accepted by make_runner but NOT in checked_locks(). The checker
/// self-validation tests and `check_schedules --lock SpRWL-broken` use it
/// to prove the pipeline catches a real atomicity bug. The other
/// make_runner-only broken variants follow the same convention:
/// "SpRWL-sharded-broken", "SpRWL-bravo-broken", "SpRWL-bravo-numa-broken",
/// "SpRWL-timeout-broken" (timeout unwind leaks its ReaderTable slot),
/// "SpRWL-mvcc-broken" (snapshot lookup blinded: pinned readers observe
/// too-new values) and "SpRWL-lease-broken" (optimistic reads skip the
/// version re-read). Each is built from a mutant in mutants.h.
inline const char* broken_lock_name() noexcept { return "SpRWL-broken"; }

/// Builds a runner executing `w` over a fresh instance of the named lock
/// per run. Throws std::invalid_argument for unknown names.
RunFn make_runner(const std::string& name, const Workload& w);

}  // namespace sprwl::check
