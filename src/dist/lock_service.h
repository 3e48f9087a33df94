// Sharded distributed lock service: SpRWL locally per node, versioned
// leases for cross-node ownership, optimistic one-sided cross-node reads.
//
// A Shard is one lease-protected payload (a small array of cache lines)
// living in "global memory" — in an RDMA deployment, the home node's
// registered region. Three access paths:
//
//  * WRITE — the writer's node must hold the shard's lease (lease.h). The
//    payload publication is a seqlock: claim (version -> odd), undo log,
//    cell stores, publish (version -> even), all *plain* strong-isolation
//    stores executed under the node's local SpRWL in SGL mode. Plain
//    stores publish per word in virtual-time order, which is what makes
//    the odd/even protocol meaningful to non-coherent remote readers — an
//    HTM commit's multi-line publish window has no order a remote reader
//    could rely on (and real NICs read remote memory with no more than
//    word atomicity), so the write body explicitly aborts out of any
//    transaction and always runs on the SGL path. The local SpRWL is the
//    node's local concurrency control: it serializes the node's writers
//    and lets escalated local readers read coherently.
//  * OPTIMISTIC READ — any thread, any node: read version, copy the
//    payload (each line priced as a one-sided remote read when it crosses
//    nodes, CostModel::remote_node), re-read version; mismatch or an odd
//    version rejects the copy and retries. After Shard::kReadRetries failures
//    the reader escalates to the lease: its node acquires ownership and
//    reads under the local SpRWL.
//  * DEGRADED — when the lease service is unreachable
//    (set_service_reachable(false)), writers fall back to the shard's
//    degradation SGL: a single global lock, safe and slow, preserving the
//    version protocol so optimistic readers keep working.
//
// Crash recovery: a crashed holder leaves the lease to expire and possibly
// a torn payload (version odd — the claim landed but the publish did
// not). The next node to be *granted* the lease (a fresh epoch) runs
// recovery before using it: if the undo stamp matches the torn version,
// the cells are rolled back from the undo log; the version is then
// published even. The undo stamp is written after the undo log is
// complete, so a crash mid-undo leaves a stale stamp and recovery knows
// the cells were never touched. Recovery is idempotent (re-crashing
// mid-recovery re-runs it against the same undo image). The stale
// holder's late stores are fenced by the per-store expiry guard — see
// lease.h and DESIGN.md §15 for the full safety argument.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/platform.h"
#include "core/sprwl.h"
#include "dist/lease.h"
#include "fault/fault.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/sgl.h"

namespace sprwl::dist {

/// Explicit abort code for "this body must not run transactionally": the
/// seqlock publication depends on plain per-word store order, so the dist
/// write body aborts any enclosing transaction and runs on the local
/// lock's SGL path (cfg.local.max_retries is forced to 0, so the abort
/// escalates immediately).
inline constexpr std::uint8_t kCodePlainOnly = 0x07;

struct ShardConfig {
  /// Node mapping for thread ids. nodes == 1 degenerates to a single
  /// coherence domain (every path still works; nothing crosses the fabric).
  sim::Topology topology;
  int max_threads = 64;
  /// Payload size in cache lines (one 64-bit word per line — line
  /// granularity is what torn cross-node copies split on).
  std::size_t cells = 4;
  LeaseConfig lease;
  /// Template for the per-node local SpRWLs (max_threads and max_retries
  /// are overridden; see kCodePlainOnly).
  core::Config local;
};

struct ShardStats {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_retries{0};      ///< rejected optimistic copies
  std::atomic<std::uint64_t> read_escalations{0};
  std::atomic<std::uint64_t> read_failures{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> write_abandons{0};    ///< fenced mid-write (lease lost)
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> recoveries{0};        ///< torn payloads repaired
  std::atomic<std::uint64_t> degraded_writes{0};
};

class Shard {
 public:
  /// Optimistic read attempts before escalating to the lease.
  static constexpr int kReadRetries = 4;
  /// Escalated (lease-held) read rounds before read() reports failure.
  static constexpr int kEscalationRounds = 64;
  /// Write attempts (each a lease ensure + local section) before write()
  /// reports failure.
  static constexpr int kWriteBudget = 16;

  explicit Shard(const ShardConfig& cfg)
      : cfg_(cfg),
        lease_(cfg.lease),
        cells_(cfg.cells),
        undo_(cfg.cells),
        cur_(static_cast<std::size_t>(cfg.max_threads)),
        nxt_(static_cast<std::size_t>(cfg.max_threads)) {
    assert(cfg.cells >= 1);
    core::Config lc = cfg.local;
    lc.max_threads = cfg.max_threads;
    lc.max_retries = 0;  // every write body runs on the SGL path (plain stores)
    const int nodes = cfg.topology.nodes < 1 ? 1 : cfg.topology.nodes;
    local_.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      local_.push_back(std::make_unique<core::SpRWLock>(lc));
    }
    for (auto& b : cur_) b.assign(cfg.cells, 0);
    for (auto& b : nxt_) b.assign(cfg.cells, 0);
  }

  virtual ~Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Read-modify-write of the whole payload. `f(vals, n)` receives the
  /// current payload and rewrites it in place; like every section body in
  /// this library it must be re-runnable (a fenced attempt re-ensures the
  /// lease and runs it again). Returns false when the write budget or the
  /// lease acquire budget was exhausted.
  template <class F>
  bool write(int tid, F&& f) {
    const int node = cfg_.topology.node_of(tid);
    for (int attempt = 0; attempt < kWriteBudget; ++attempt) {
      if (!service_reachable_.raw_load()) {
        return write_degraded(tid, std::forward<F>(f));
      }
      Lease l = ensure_lease(node, locks::kNoDeadline);
      if (!l.valid()) break;
      maybe_renew(l);
      bool ok = false;
      local_[static_cast<std::size_t>(node)]->write(
          0, [&] { ok = write_body(tid, l, f); });
      if (ok) {
        stats_.writes.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      stats_.write_abandons.fetch_add(1, std::memory_order_relaxed);
    }
    stats_.write_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Optimistic one-sided read of the whole payload into out[0..cells).
  /// Validated copies only; escalates to the lease after repeated
  /// rejections. Returns false only when both paths exhausted their
  /// budgets (a shard under permanent write pressure from a dead service).
  bool read(int tid, std::uint64_t* out) {
    for (int a = 0; a < kReadRetries; ++a) {
      if (read_attempt(out, 0)) {
        stats_.reads.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      stats_.read_retries.fetch_add(1, std::memory_order_relaxed);
      platform::pause();
    }
    stats_.read_escalations.fetch_add(1, std::memory_order_relaxed);
    const int node = cfg_.topology.node_of(tid);
    for (int round = 0; round < kEscalationRounds; ++round) {
      if (!service_reachable_.raw_load()) {
        // No lease authority: keep validating optimistically against the
        // degraded writers (they preserve the version protocol).
        if (read_attempt(out, 0)) {
          stats_.reads.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        platform::pause();
        continue;
      }
      Lease l = ensure_lease(node, locks::kNoDeadline);
      if (!l.valid()) break;
      bool ok = false;
      local_[static_cast<std::size_t>(node)]->read(
          0, [&] { ok = read_attempt(out, 0); });
      if (ok) {
        stats_.reads.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      platform::pause();
    }
    stats_.read_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// One raw optimistic attempt with a deliberate virtual-time stall
  /// between the two halves of the payload copy — the torn-read oracle
  /// (fault/chaos.h) drives this to *manufacture* split copies and assert
  /// the validation loop rejects every torn observation. Returns whether
  /// the copy was accepted.
  bool read_once_split(std::uint64_t* out, std::uint64_t mid_copy_stall) {
    return read_attempt(out, mid_copy_stall);
  }

  /// Service reachability toggle (degradation column of the bench): while
  /// false, writers bypass the lease and serialize on the degradation SGL.
  void set_service_reachable(bool up) { service_reachable_.raw_store(up); }

  LeaseService& lease() noexcept { return lease_; }
  const ShardStats& stats() const noexcept { return stats_; }
  const ShardConfig& config() const noexcept { return cfg_; }

  /// Raw payload word (test/bench assertions outside any run).
  std::uint64_t raw_cell(std::size_t i) const { return cells_[i].v.raw_load(); }
  std::uint64_t raw_version() const { return version_.raw_load(); }

 protected:
  /// The seqlock re-read that accepts an optimistic copy: true when the
  /// version still reads `v0`, the even value read before the copy.
  /// Virtual so the torn-read oracle's self-check can skip it.
  virtual bool validate_copy(std::uint64_t v0) {
    return version_.load() == v0;
  }

 private:
  struct alignas(64) Line {
    htm::Shared<std::uint64_t> v;
  };

  /// Guarded store: the holder's write access dies exactly at its cached
  /// expiry (lease.h explains why the cached value is sound). Every store
  /// of the write/recovery paths goes through this — a false return
  /// abandons the attempt, leaving the torn state for the next holder's
  /// recovery.
  static bool guarded_store(const Lease& l, htm::Shared<std::uint64_t>& w,
                            std::uint64_t v) {
    if (platform::now() >= l.expiry) return false;
    w.store(v);
    return true;
  }

  /// Acquire-or-join the node's lease; a fresh grant runs recovery before
  /// anyone on the node may use the epoch, a join waits for the granting
  /// thread's recovery to finish.
  Lease ensure_lease(int node, std::uint64_t deadline) {
    for (;;) {
      bool fresh = false;
      Lease l = lease_.acquire(node, deadline, &fresh);
      if (!l.valid()) return l;
      if (fresh) {
        if (!recover(l)) continue;  // expired mid-recovery: re-acquire
        ready_epoch_.store(l.epoch);
        return l;
      }
      if (wait_ready(l)) return l;
      // Lease died while waiting for recovery; try again.
    }
  }

  bool wait_ready(const Lease& l) {
    while (ready_epoch_.load() != l.epoch) {
      if (!lease_.validate(l)) return false;
      platform::pause();
    }
    return true;
  }

  /// Repair a torn payload under a freshly granted lease. See the header
  /// comment for the undo-stamp protocol; idempotent, expiry-guarded.
  bool recover(const Lease& l) {
    const std::uint64_t v = version_.load();
    if ((v & 1) == 0) return true;
    stats_.recoveries.fetch_add(1, std::memory_order_relaxed);
    fault::checkpoint(SchedKind::kLeaseExpire, this);
    if (undo_stamp_.load() == v) {
      for (std::size_t i = 0; i < cfg_.cells; ++i) {
        if (!guarded_store(l, cells_[i].v, undo_[i].v.load())) return false;
      }
    }
    return guarded_store(l, version_, v + 1);  // odd + 1: stable again
  }

  /// Renew when the remaining term dropped under a quarter — the margin
  /// keeps steady writers from ever racing their own expiry. A failed
  /// renewal is not an error here; the write body's guards handle it.
  void maybe_renew(Lease& l) {
    const std::uint64_t now = platform::now();
    if (l.expiry > now && l.expiry - now >= lease_.config().term / 4) return;
    (void)lease_.renew(l);
  }

  template <class F>
  bool write_body(int tid, const Lease& l, F& f) {
    if (htm::Engine* e = htm::Engine::current(); e != nullptr && e->in_tx()) {
      e->abort_tx(kCodePlainOnly);  // seqlock publication needs plain stores
    }
    const std::uint64_t v = version_.load();
    if ((v & 1) != 0) return false;  // unrecovered tear: not ours to repair
    std::vector<std::uint64_t>& cur = cur_[static_cast<std::size_t>(tid)];
    std::vector<std::uint64_t>& nxt = nxt_[static_cast<std::size_t>(tid)];
    for (std::size_t i = 0; i < cfg_.cells; ++i) cur[i] = cells_[i].v.load();
    nxt = cur;
    f(nxt.data(), cfg_.cells);
    // Claim: remote readers now reject their copies.
    if (!guarded_store(l, version_, v + 1)) return false;
    fault::checkpoint(SchedKind::kWriteBody, this);
    // Undo log, completed before the stamp declares it valid — a crash
    // in between leaves a stale stamp and recovery knows the cells are
    // still clean (the torn-write window, tests/dist/test_lock_service).
    for (std::size_t i = 0; i < cfg_.cells; ++i) {
      if (!guarded_store(l, undo_[i].v, cur[i])) return false;
    }
    if (!guarded_store(l, undo_stamp_, v + 1)) return false;
    fault::checkpoint(SchedKind::kWriteBody, this);
    for (std::size_t i = 0; i < cfg_.cells; ++i) {
      if (!guarded_store(l, cells_[i].v, nxt[i])) return false;
      if (i + 1 == cfg_.cells / 2) {
        fault::checkpoint(SchedKind::kWriteBody, this);
      }
    }
    // Publish: authoritative lease re-validation, then the even version.
    if (!lease_.validate(l)) return false;
    return guarded_store(l, version_, v + 2);
  }

  template <class F>
  bool write_degraded(int tid, F&& f) {
    fallback_sgl_.lock();
    std::uint64_t v = version_.load();
    if ((v & 1) != 0) {
      // Tear left behind by a holder that died before the degradation:
      // repair it under the global SGL (no lease authority exists to
      // contest it; the operator degraded the whole service).
      stats_.recoveries.fetch_add(1, std::memory_order_relaxed);
      if (undo_stamp_.load() == v) {
        for (std::size_t i = 0; i < cfg_.cells; ++i) {
          cells_[i].v.store(undo_[i].v.load());
        }
      }
      version_.store(v + 1);
      v += 1;
    }
    std::vector<std::uint64_t>& cur = cur_[static_cast<std::size_t>(tid)];
    std::vector<std::uint64_t>& nxt = nxt_[static_cast<std::size_t>(tid)];
    for (std::size_t i = 0; i < cfg_.cells; ++i) cur[i] = cells_[i].v.load();
    nxt = cur;
    f(nxt.data(), cfg_.cells);
    version_.store(v + 1);
    for (std::size_t i = 0; i < cfg_.cells; ++i) cells_[i].v.store(nxt[i]);
    version_.store(v + 2);
    fallback_sgl_.unlock();
    stats_.degraded_writes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// The optimistic protocol itself: version, copy, version. The copy
  /// emits a checkpoint at its midpoint — under chaos/DFS that is where
  /// preemptions and node crashes split it — and `mid_copy_stall` lets the
  /// torn-read oracle split it deterministically.
  bool read_attempt(std::uint64_t* out, std::uint64_t mid_copy_stall) {
    fault::checkpoint(SchedKind::kReadBody, this);
    const std::uint64_t v0 = version_.load();
    if ((v0 & 1) != 0) return false;  // mid-publish
    for (std::size_t i = 0; i < cfg_.cells; ++i) {
      out[i] = cells_[i].v.load();
      if (i + 1 == cfg_.cells / 2) {
        if (mid_copy_stall != 0) platform::advance(mid_copy_stall);
        fault::checkpoint(SchedKind::kReadBody, this);
      }
    }
    return validate_copy(v0);
  }

  ShardConfig cfg_;
  LeaseService lease_;
  std::vector<std::unique_ptr<core::SpRWLock>> local_;  // one per node
  // Line-anchored for the same reason as Line: the version word's cache
  // line (addr >> 6) must not depend on the Shard's allocation address.
  alignas(64) htm::Shared<std::uint64_t> version_;  // even=stable, odd=publishing
  htm::Shared<std::uint64_t> undo_stamp_;  // claim version the undo is for
  htm::Shared<std::uint64_t> ready_epoch_; // recovery-done gate per epoch
  htm::Shared<bool> service_reachable_{true};
  std::vector<Line> cells_;
  std::vector<Line> undo_;
  std::vector<std::vector<std::uint64_t>> cur_, nxt_;  // per-tid scratch
  locks::SglLock fallback_sgl_;            // degradation path
  ShardStats stats_;
};

/// The sharded service: `shards` independent Shards (independent leases,
/// independent payloads) over one topology — the unit the benchmark sweeps.
class LockService {
 public:
  LockService(const ShardConfig& cfg, std::size_t shards) {
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(cfg));
    }
  }

  Shard& shard(std::size_t i) { return *shards_[i % shards_.size()]; }
  std::size_t shard_count() const noexcept { return shards_.size(); }

  void set_service_reachable(bool up) {
    for (auto& s : shards_) s->set_service_reachable(up);
  }

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Closure-based adapter with the library's standard lock interface
/// (read(cs, f) / write(cs, f)) so the systematic checker can drive the
/// lease + seqlock protocol with its counter workload (check/registry.cpp,
/// "SpRWL-lease"). The reader wraps f in the optimistic validation loop —
/// like an HTM-first reader, f must be re-runnable — and the writer runs f
/// between claim and publish under the node's lease and local SpRWL.
class LeasedLock {
 public:
  struct Config {
    sim::Topology topology;
    int max_threads = 8;
    LeaseConfig lease;
    core::Config local;
  };

  explicit LeasedLock(const Config& cfg) : cfg_(cfg), lease_(cfg.lease) {
    core::Config lc = cfg.local;
    lc.max_threads = cfg.max_threads;
    lc.max_retries = 0;
    const int nodes = cfg.topology.nodes < 1 ? 1 : cfg.topology.nodes;
    local_.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      local_.push_back(std::make_unique<core::SpRWLock>(lc));
    }
  }

  virtual ~LeasedLock() = default;
  LeasedLock(const LeasedLock&) = delete;
  LeasedLock& operator=(const LeasedLock&) = delete;

  template <class F>
  void write(int cs_id, F&& f) {
    const int node = cfg_.topology.node_of(platform::thread_id());
    for (;;) {
      Lease l = lease_.acquire(node);
      bool ok = false;
      local_[static_cast<std::size_t>(node)]->write(cs_id, [&] {
        if (htm::Engine* e = htm::Engine::current();
            e != nullptr && e->in_tx()) {
          e->abort_tx(kCodePlainOnly);
        }
        const std::uint64_t v = version_.load();
        if ((v & 1) != 0) return;  // foreign claim (never ours: lease held)
        version_.store(v + 1);
        fault::checkpoint(SchedKind::kWriteBody, &version_);
        f();
        fault::checkpoint(SchedKind::kWriteBody, &version_);
        version_.store(v + 2);
        ok = true;
      });
      lease_.release(l);
      if (ok) return;
    }
  }

  template <class F>
  void read(int cs_id, F&& f) {
    (void)cs_id;
    for (;;) {
      const std::uint64_t v0 = version_.load();
      if ((v0 & 1) != 0) {
        platform::pause();
        continue;
      }
      f();
      if (validate_copy(v0)) return;
      platform::pause();
    }
  }

 protected:
  /// The seqlock re-read that accepts the section's copy: true when the
  /// version still reads `v0`. Virtual so the checker can plant a reader
  /// that skips it (check/mutants.h).
  virtual bool validate_copy(std::uint64_t v0) {
    return version_.load() == v0;
  }

 private:
  Config cfg_;
  LeaseService lease_;
  std::vector<std::unique_ptr<core::SpRWLock>> local_;
  alignas(64) htm::Shared<std::uint64_t> version_;
};

}  // namespace sprwl::dist
