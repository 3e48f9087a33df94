// Deliberately broken parts of the library for the checker's
// self-validation. Each overrides one operation of a reader tracker, a
// bravo::ReaderTable, the HTM engine or the lease tier's lock; the registry
// builds it under the "-broken" name the checker must catch. No production
// config field, Workload field or repro-artifact key reaches them.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/costs.h"
#include "common/platform.h"
#include "core/bravo.h"
#include "core/tracker.h"
#include "dist/lock_service.h"
#include "htm/engine.h"

namespace sprwl::check {

/// SpRWL-broken and SpRWL-sharded-broken: the commit scan is blind to reader
/// tid 0 — its flag (flat, scanned per word) or its socket's count.
class BlindScanFlags : public core::FlagsTracker {
 public:
  static constexpr int kBlindTid = 0;
  using FlagsTracker::FlagsTracker;

  bool subscribe(int tid) override {
    if (state_.socket_major()) {
      for (int s = 0; s < state_.sockets(); ++s) {
        if (s == state_.socket_of(kBlindTid)) continue;
        if (count(s).load() != 0) return true;
      }
      return false;
    }
    for (int t = 0; t < state_.threads(); ++t) {
      if (t != tid && t != kBlindTid &&
          state_[t].load() == core::StateArray::kReader) {
        return true;
      }
    }
    return false;
  }
};

/// SpRWL-bravo-broken: the revocation drain ignores the global table's last
/// slot, so a fast-path reader parked there survives revocation.
class SkipLastSlotTable : public bravo::ReaderTable {
 public:
  using ReaderTable::ReaderTable;
  bool wait_for_readers_of(std::uint32_t lock_id, std::uint64_t deadline,
                           std::uint64_t*) override {
    return drain_range(0, slot_count() - 1, tag_of(lock_id), deadline);
  }
};

/// SpRWL-bravo-numa-broken: the sharded drain skips shard 0 — summary and
/// slots — so a reader registered on socket 0 survives revocation.
class SkipShardTable : public bravo::ReaderTable {
 public:
  using ReaderTable::ReaderTable;

 protected:
  bool drain_shard(int sh, std::uint64_t tag, std::uint64_t deadline,
                   std::uint64_t* cyc) override {
    if (sh != 0) return ReaderTable::drain_shard(sh, tag, deadline, cyc);
    if (cyc != nullptr) *cyc = 0;
    return true;
  }
};

/// SpRWL-timeout-broken: a timed fast-path reader that expires after
/// publishing its slot leaks it; the next drain spins forever (livelock).
class LeakOnCancelTable : public bravo::ReaderTable {
 public:
  using ReaderTable::ReaderTable;
  void cancel(std::size_t, int) override {}
};

/// SpRWL-mvcc-broken: snapshot reads skip the version lookup and serve
/// current memory whatever the pin, so a pinned reader racing a commit
/// observes the post-commit value (a too-new read). Charges one load, as
/// the healthy read of an unchanged line does.
class TooNewSnapshotEngine : public htm::Engine {
 public:
  using Engine::Engine;

 protected:
  std::uint64_t snapshot_lookup(
      const std::atomic<std::uint64_t>& cell) override {
    platform::advance(g_costs.load);
    return cell.load(std::memory_order_acquire);
  }
};

/// SpRWL-lease-broken: the optimistic reader accepts its copy without the
/// version re-read, so a read straddling a claim/publish window is accepted.
class SkipValidationLease : public dist::LeasedLock {
 public:
  using LeasedLock::LeasedLock;

 protected:
  bool validate_copy(std::uint64_t) override { return true; }
};

}  // namespace sprwl::check
