// Deliberately broken parts of SpRWLock for the checker's self-validation.
// Each overrides one operation of a reader tracker or a bravo::ReaderTable;
// the registry builds it under the "-broken" name the checker must catch.
// No Config field reaches them.
#pragma once

#include <cstdint>

#include "core/bravo.h"
#include "core/tracker.h"

namespace sprwl::check {

/// SpRWL-broken and SpRWL-sharded-broken: the commit scan is blind to reader
/// tid 0 — its flag (flat, scanned per word) or its socket's count.
class BlindScanFlags : public core::FlagsTracker {
 public:
  static constexpr int kBlindTid = 0;
  using FlagsTracker::FlagsTracker;

  bool subscribe(htm::Engine&, int tid) override {
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
                           std::uint64_t*, std::size_t) override {
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

}  // namespace sprwl::check
