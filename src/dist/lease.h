// Versioned leases: cross-node write ownership for the distributed tier.
//
// Nodes in a multi-node sim::Topology share no cache coherence (see
// topology.h), so cross-node ownership cannot ride on the engine's strong
// isolation the way the single-node locks do. The dist tier instead uses
// the classic lease protocol (Gray & Cheriton): a node acquires a
// *versioned lease* — a (epoch, holder, expiry) triple — whose validity is
// bounded in virtual time. Every grant bumps the epoch, which is the fence
// the safety argument rests on (DESIGN.md §15): a recovered lease can never
// admit a stale holder's late write, because
//
//  * the holder guards every payload store with a now() < expiry check
//    against its *cached* grant expiry (an RDMA deployment would revoke
//    the NIC's write access at expiry; the virtual-time guard models that
//    revocation exactly, and under the simulator's min-time scheduling all
//    guarded stores therefore execute before any post-expiry grant), and
//  * the service re-grants only at now() >= expiry, with a fresh epoch, so
//    renewal after expiry is *rejected* — a partitioned holder whose renew
//    message arrives late learns it lost the lease instead of extending a
//    lease someone else now holds.
//
// The service itself is a tiny state machine serialized by an internal SGL
// (a real lock server serializes its own grant log); readers validate
// leases lock-free through a seqlock so validation costs four loads on the
// fast path. All state lives in Shared<> words, so when the service's home
// is on another node the virtual-time cost model automatically charges the
// fabric round trips (CostModel::remote_node) — an acquire from a remote
// node *is* more expensive than from the home node, with no extra code.
//
// Acquire/renew attempts emit fault::checkpoint(kLeaseRenew) and every
// expiry decision emits kLeaseExpire, so the systematic checker (DFS/PCT)
// and the fault injector interleave lease handoffs like any other lock-API
// hook; node partitions (fault::partition_heal) stall the renewal path past
// expiry, which is exactly the stale-holder scenario the epoch fence exists
// for.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/platform.h"
#include "fault/fault.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/sgl.h"

namespace sprwl::dist {

struct LeaseConfig {
  /// Lease validity from grant or renewal, virtual cycles. Bounds the
  /// recovery latency after a holder crash: the next grant happens at most
  /// one term after the crash (plus the grant itself).
  std::uint64_t term = 200'000;
  /// Retry/backoff budget for acquire (the PR 2 hardening pattern):
  /// exponential backoff between attempts, capped; acquire gives up after
  /// `acquire_budget` attempts (0 = unbounded).
  int acquire_budget = 0;
  std::uint64_t backoff_base = 500;
  std::uint64_t backoff_max = 16'000;
};

/// A granted lease as cached by the holder. `expiry` is the authoritative
/// expiry as of the grant/last renewal; the service only ever moves the
/// real expiry *forward* while the same epoch is held (renewals by this
/// holder), so `now() < expiry` is a sound store guard: it implies the
/// authoritative lease is unexpired, hence no later epoch exists yet.
struct Lease {
  std::uint64_t epoch = 0;
  std::uint64_t expiry = 0;
  int node = -1;

  bool valid() const noexcept { return node >= 0; }
};

struct LeaseStats {
  std::atomic<std::uint64_t> grants{0};
  std::atomic<std::uint64_t> joins{0};        ///< acquired-by-sharing (same node)
  std::atomic<std::uint64_t> renewals{0};
  std::atomic<std::uint64_t> renewals_rejected{0};
  std::atomic<std::uint64_t> expiries{0};     ///< grants over an expired holder
  std::atomic<std::uint64_t> acquire_failures{0};
  std::atomic<std::uint64_t> partition_stalls{0};
};

class LeaseService {
 public:
  explicit LeaseService(const LeaseConfig& cfg) : cfg_(cfg) {}

  LeaseService(const LeaseService&) = delete;
  LeaseService& operator=(const LeaseService&) = delete;

  /// Acquire the lease for `node` (or join the node's existing lease — one
  /// lease per node, shared by its threads). Spins with bounded exponential
  /// backoff while another node holds an unexpired lease; gives up at
  /// `deadline` (locks::kNoDeadline = none) or after cfg.acquire_budget
  /// attempts. Returns an invalid Lease on failure. `fresh` (optional) is
  /// set when this call performed the grant itself — the caller owning a
  /// fresh epoch must run recovery before the node uses the lease
  /// (lock_service.h).
  Lease acquire(int node, std::uint64_t deadline = locks::kNoDeadline,
                bool* fresh = nullptr) {
    if (fresh != nullptr) *fresh = false;
    std::uint64_t backoff = cfg_.backoff_base;
    for (int attempt = 0;; ++attempt) {
      fault::checkpoint(SchedKind::kLeaseRenew, this);
      stall_for_partition(node);
      svc_.lock();
      const std::uint64_t now = platform::now();
      const std::uint64_t holder = holder_.load();
      const std::uint64_t expiry = expiry_.load();
      const auto self = static_cast<std::uint64_t>(node) + 1;
      if (holder == self && now < expiry) {
        // The node already holds it: share the grant.
        const Lease l{epoch_.load(), expiry, node};
        svc_.unlock();
        stats_.joins.fetch_add(1, std::memory_order_relaxed);
        return l;
      }
      const bool over_expired = holder != 0 && now >= expiry;
      if (holder == 0 || over_expired) {
        // Grant: epoch bump under the service lock, seqlock-published so
        // validate() never observes a half-written grant. An expired
        // holder's epoch dies exactly once — the re-check above ran under
        // the same lock that serialized this bump, so two racers cannot
        // both observe the same expiry (the "double-expiry" edge case,
        // tests/dist/test_lease.cpp).
        const std::uint64_t s = seq_.load();
        seq_.store(s + 1);
        const std::uint64_t e = epoch_.load() + 1;
        epoch_.store(e);
        holder_.store(self);
        expiry_.store(now + cfg_.term);
        seq_.store(s + 2);
        svc_.unlock();
        stats_.grants.fetch_add(1, std::memory_order_relaxed);
        if (over_expired) {
          stats_.expiries.fetch_add(1, std::memory_order_relaxed);
          fault::checkpoint(SchedKind::kLeaseExpire, this);
        }
        if (fresh != nullptr) *fresh = true;
        return Lease{e, now + cfg_.term, node};
      }
      svc_.unlock();
      if (locks::deadline_expired(deadline) ||
          (cfg_.acquire_budget > 0 && attempt + 1 >= cfg_.acquire_budget)) {
        stats_.acquire_failures.fetch_add(1, std::memory_order_relaxed);
        return Lease{};
      }
      // Held elsewhere: back off (bounded, deadline-capped) and retry.
      const std::uint64_t until =
          locks::cap_wait(platform::now() + backoff, deadline);
      platform::wait_until(until);
      if (backoff < cfg_.backoff_max) backoff *= 2;
    }
  }

  /// Extend the holder's lease by one term. Fails — and the holder must
  /// stop writing — when the lease expired (someone else may already hold
  /// a fresh epoch) or was re-granted. A partition stalls the attempt
  /// until the heal, which is precisely how a renewal "arrives late".
  bool renew(Lease& l) {
    fault::checkpoint(SchedKind::kLeaseRenew, this);
    stall_for_partition(l.node);
    svc_.lock();
    const std::uint64_t now = platform::now();
    const bool ours = epoch_.load() == l.epoch &&
                      holder_.load() == static_cast<std::uint64_t>(l.node) + 1;
    if (ours && now < expiry_.load()) {
      const std::uint64_t s = seq_.load();
      seq_.store(s + 1);
      expiry_.store(now + cfg_.term);
      seq_.store(s + 2);
      svc_.unlock();
      l.expiry = now + cfg_.term;
      stats_.renewals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    svc_.unlock();
    stats_.renewals_rejected.fetch_add(1, std::memory_order_relaxed);
    fault::checkpoint(SchedKind::kLeaseExpire, this);
    return false;
  }

  /// Lock-free validity check (seqlock read): the lease's epoch is still
  /// the granted one, held by the lease's node, and unexpired.
  bool validate(const Lease& l) {
    for (;;) {
      const std::uint64_t s0 = seq_.load();
      if ((s0 & 1) != 0) {
        platform::pause();
        continue;
      }
      const std::uint64_t e = epoch_.load();
      const std::uint64_t h = holder_.load();
      const std::uint64_t x = expiry_.load();
      if (seq_.load() != s0) continue;
      return e == l.epoch && h == static_cast<std::uint64_t>(l.node) + 1 &&
             platform::now() < x;
    }
  }

  /// Voluntary release. A crashed holder never calls this — its lease
  /// expires in virtual time instead, which is what bounds recovery.
  void release(const Lease& l) {
    svc_.lock();
    if (epoch_.load() == l.epoch &&
        holder_.load() == static_cast<std::uint64_t>(l.node) + 1) {
      const std::uint64_t s = seq_.load();
      seq_.store(s + 1);
      holder_.store(0);
      expiry_.store(platform::now());
      seq_.store(s + 2);
    }
    svc_.unlock();
  }

  /// Current epoch (diagnostics / recovery gate).
  std::uint64_t epoch() const { return epoch_.raw_load(); }

  const LeaseConfig& config() const noexcept { return cfg_; }
  const LeaseStats& stats() const noexcept { return stats_; }

 private:
  /// Model a partitioned node's service RPC: the message is stuck until
  /// the partition heals. Waiting in virtual time naturally pushes the
  /// retry past the lease expiry when the partition outlives the term.
  void stall_for_partition(int node) {
    const std::uint64_t heal = fault::partition_heal(node, platform::now());
    if (heal != 0) {
      stats_.partition_stalls.fetch_add(1, std::memory_order_relaxed);
      platform::wait_until(heal);
    }
  }

  LeaseConfig cfg_;
  locks::SglLock svc_;                  // serializes grant/renew/release
  // Line-anchored so the words' grouping into cache lines (line_of keys on
  // addr >> 6) never depends on where the service was allocated — stack
  // objects would otherwise price transfers differently run to run.
  alignas(64) htm::Shared<std::uint64_t> seq_;  // seqlock for validate()
  htm::Shared<std::uint64_t> epoch_;    // bumps on every grant
  htm::Shared<std::uint64_t> holder_;   // node + 1; 0 = free
  htm::Shared<std::uint64_t> expiry_;   // absolute virtual time
  LeaseStats stats_;
};

}  // namespace sprwl::dist
