// BRAVO reader bias in front of SpRWLock's per-lock tracker (DESIGN.md
// §12, §16): the bias word, the fast read path through the shared
// bravo::ReaderTable, writer-side revocation, and the reader-side re-bias
// throttle with its per-shard revocation telemetry. A lock without
// Config::bravo_bias gets an inert front: every operation returns at once
// without touching an engine word.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/platform.h"
#include "common/scope_exit.h"
#include "common/trace.h"
#include "core/bravo.h"
#include "core/config.h"
#include "fault/fault.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/sgl.h"

namespace sprwl::core {

class BiasFront {
 public:
  /// Fast-path outcome: the section ran, the deadline expired (slot already
  /// unwound), or take the slow path (bias off, slot collision, or a
  /// concurrent revocation/SGL writer won the race).
  enum class Read { kDone, kTimeout, kSlow };
  /// The bias part of the commit scan: a fast-path reader may be live, no
  /// slow-path reader ever registered, or ask the tracker.
  enum class Scan { kReaders, kNoPlane, kAskTracker };

  /// Consecutive reader-only acquisitions (a streak any writer resets)
  /// before a reader tries to re-arm a revoked bias.
  static constexpr std::uint64_t kRebiasReads = 16;
  /// Revocation-cost-proportional inhibition (the BRAVO paper's rule): a
  /// re-bias is also suppressed until the bias has been off for this
  /// multiple of the sampled revocation latency.
  static constexpr double kRebiasCooldown = 8.0;

  explicit BiasFront(const Config& cfg) {
    if (!cfg.bravo_bias) return;
    const bravo::ReaderTable* t = cfg.bravo_table.get();
    if (t == nullptr) {
      throw std::invalid_argument(
          "SpRWLock: Config::bravo_bias requires a shared Config::bravo_table");
    }
    if (t->sharded() && t->config().max_threads < cfg.max_threads) {
      // The sharded table keeps per-thread registration state.
      throw std::invalid_argument(
          "SpRWLock: a socket-sharded bravo_table needs max_threads >= the "
          "lock's max_threads");
    }
    table_ = cfg.bravo_table.get();
    lock_id_ = table_->register_lock();
    word_.raw_store(kOn);  // read-only cold locks never build a plane
    if (table_->sharded()) {
      // One lazily sized block behind one pointer: a cold shell on a
      // global table pays a single null word.
      shard_revoke_ = std::make_unique<ShardRevoke[]>(
          static_cast<std::size_t>(table_->shard_count()));
    }
  }

  /// Under bias, a lock builds its plane only for slow-path readers.
  bool defers_plane() const noexcept { return table_ != nullptr; }

  /// Publishes (lock, tid) in the shared table and runs the section without
  /// touching the per-lock plane. `lock` names the lock at fault
  /// checkpoints.
  template <class F>
  Read try_read(int tid, std::uint64_t deadline, const locks::SglLock& gl,
                const void* lock, F& f) {
    if (table_ == nullptr || word_.load() != kOn) return Read::kSlow;
    bravo::ReaderTable& table = *table_;
    const std::size_t slot = table.slot_of(lock_id_, tid);
    if (!table.occupy(slot, lock_id_, tid)) return Read::kSlow;  // collision
    htm::memory_fence();  // publish the slot before validating bias / SGL
    if (word_.load() != kOn || gl.is_locked()) {
      // Dekker with the writer (publish-slot/check-bias vs
      // publish-revoking/scan-slots): the writer's drain may already have
      // passed our line, so back out and register where it is looking.
      table.release(slot, tid);
      return Read::kSlow;
    }
    fault::checkpoint(SchedKind::kReadEnter, lock);
    if (locks::deadline_expired(deadline)) {
      // Expired while parked at the checkpoint (the chaos preemption
      // window): the published slot must go, or it wedges every later
      // revocation drain.
      table.cancel(slot, tid);
      return Read::kTimeout;
    }
    trace::emit(trace::Event::kReadBiasEnter);
    {
      ScopeExit release([&] {
        htm::memory_fence();  // reads must complete before the slot clears
        table.release(slot, tid);
        trace::emit(trace::Event::kReadBiasExit);
      });
      f();
      fault::checkpoint(SchedKind::kReadExit, lock);
    }
    reads_.fetch_add(1, std::memory_order_relaxed);
    return Read::kDone;
  }

  /// Re-bias, after every slow or HTM read: after kRebiasReads
  /// consecutive reader-only acquisitions (writers reset the streak) and
  /// once the revocation-EMA cooldown has passed — a sharded table's uses
  /// the reader's own shard's EMA — re-arm the bias. The decision peeks raw
  /// state (uncharged heuristics); the flip is a strong-isolation CAS whose
  /// version bump aborts any writer that already subscribed the bias word.
  void after_read(int tid) {
    if (table_ == nullptr) return;
    if (streak_.fetch_add(1, std::memory_order_relaxed) + 1 < kRebiasReads) {
      return;
    }
    if (word_.raw_load() != kOff) return;
    const ShardRevoke& r = shard_revoke_ == nullptr
                               ? revoke_
                               : shard_revoke_[table_->shard_of_tid(tid)];
    const std::uint64_t last = relaxed(r.last);
    const auto cool = static_cast<std::uint64_t>(
        kRebiasCooldown * static_cast<double>(relaxed(r.ema)));
    if (last != 0 && cool != 0 && platform::now() - last < cool) return;
    if (word_.cas(kOff, kOn)) {
      streak_.store(0, std::memory_order_relaxed);
      rebiases_.fetch_add(1, std::memory_order_relaxed);
      trace::emit(trace::Event::kBiasRebias);
    }
  }

  void before_write() {
    if (table_ != nullptr) streak_.store(0, std::memory_order_relaxed);
  }

  /// Writer-side revocation. Only the writer whose CAS moves kOn →
  /// kRevoking drains the table; every other writer waits for the kOff
  /// publish, so no writer enters its section while a fast-path reader
  /// might be live. Returns false iff the deadline expired first. An
  /// abandoned drain re-arms the bias (kRevoking → kOn, not kOff):
  /// undrained readers may be live, so the next writer starts over.
  bool revoke(std::uint64_t deadline = locks::kNoDeadline) {
    if (table_ == nullptr) return true;
    for (;;) {
      const std::uint64_t b = word_.load();
      if (b == kOff) return true;
      if (b == kOn && word_.cas(kOn, kRevoking)) {
        htm::memory_fence();  // order the state change before the scan
        return drain(deadline);
      }
      if (locks::deadline_expired(deadline)) return false;
      locks::deadline_pause(deadline);  // wakes exactly at the deadline
    }
  }

  /// Strong-isolation publish of a new plane: a writer's commit scan
  /// subscribes this word to skip the tracker while no plane exists, so
  /// the install must bump its line like a reader flag store would.
  void plane_installed() {
    if (table_ != nullptr) plane_published_.store(1);
  }

  /// Inside the writer's transaction. Both reads are subscriptions: a
  /// re-bias or a plane install after this point aborts the writer at
  /// validation, so neither kind of reader can hide.
  Scan subscribe() {
    if (table_ == nullptr) return Scan::kAskTracker;
    if (word_.load() != kOff) return Scan::kReaders;
    return plane_published_.load() == 0 ? Scan::kNoPlane : Scan::kAskTracker;
  }

  bool is_on() const { return word_.raw_load() == kOn; }
  std::uint32_t lock_id() const noexcept { return lock_id_; }
  std::uint64_t reads() const { return relaxed(reads_); }
  std::uint64_t revocations() const { return relaxed(revocations_); }
  std::uint64_t revoke_cycles() const { return relaxed(revoke_cycles_); }
  std::uint64_t rebiases() const { return relaxed(rebiases_); }
  std::uint64_t shard_revoke_ema(int shard) const {
    const bool ok = shard_revoke_ != nullptr && shard >= 0 &&
                    shard < table_->shard_count();
    return ok ? relaxed(shard_revoke_[shard].ema) : 0;
  }
  /// Heap bytes of the per-shard telemetry block.
  std::size_t bytes() const {
    if (shard_revoke_ == nullptr) return 0;
    return sizeof(ShardRevoke) *
           static_cast<std::size_t>(table_->shard_count());
  }
  void reset_stats() {
    for (auto* c : {&reads_, &revocations_, &revoke_cycles_, &rebiases_}) {
      c->store(0, std::memory_order_relaxed);
    }
  }

 private:
  // Bias word states. Anything != kOff means "fast readers may exist":
  // kRevoking keeps a second writer out until the first one's drain
  // publishes kOff.
  static constexpr std::uint64_t kOff = 0;
  static constexpr std::uint64_t kOn = 1;
  static constexpr std::uint64_t kRevoking = 2;

  /// The drain of a revocation this writer won; publishes kOff.
  bool drain(std::uint64_t deadline) {
    const std::uint64_t t0 = platform::now();
    // Each shard's drain cycles, kept private to this revoker: once kOff
    // is published, a re-bias and the next revoker's drain may run while
    // this one still records them.
    std::vector<std::uint64_t> cycles;
    if (shard_revoke_ != nullptr) {
      cycles.resize(static_cast<std::size_t>(table_->shard_count()));
    }
    std::uint64_t* shard_cycles = cycles.empty() ? nullptr : cycles.data();
    if (!table_->wait_for_readers_of(lock_id_, deadline, shard_cycles)) {
      word_.store(kOn);  // re-arm: drain incomplete
      trace::emit(trace::Event::kBiasRevokeAbandoned);
      return false;
    }
    const std::uint64_t dur = platform::now() - t0;
    word_.store(kOff);  // publish: other writers may proceed
    trace::emit(trace::Event::kBiasRevoke, static_cast<std::uint32_t>(dur));
    revocations_.fetch_add(1, std::memory_order_relaxed);
    revoke_cycles_.fetch_add(dur, std::memory_order_relaxed);
    revoke_.record(dur, platform::now());
    // Per shard: a clean remote shard samples ~one line read, a saturated
    // one its full spin.
    for (std::size_t s = 0; s < cycles.size(); ++s) {
      shard_revoke_[s].record(cycles[s], platform::now());
    }
    return true;
  }

  // Revocation telemetry, whole-lock and per table shard.
  struct ShardRevoke {
    std::atomic<std::uint64_t> ema{0};   // revocation-latency EMA
    std::atomic<std::uint64_t> last{0};  // end of the last revocation
    void record(std::uint64_t cycles, std::uint64_t end) {
      const std::uint64_t p = relaxed(ema);
      ema.store(p == 0 ? cycles : p - p / 8 + cycles / 8,
                std::memory_order_relaxed);
      last.store(end, std::memory_order_relaxed);
    }
  };
  static std::uint64_t relaxed(const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  }

  // The engine-visible words come first: the lock declares the front right
  // after its SGL, so all three share the shell's line 0.
  htm::Shared<std::uint64_t> word_;             ///< kOff/kOn/kRevoking
  htm::Shared<std::uint64_t> plane_published_;  ///< 1 once a plane exists
  bravo::ReaderTable* table_ = nullptr;         ///< null: the front is inert
  std::uint32_t lock_id_ = 0;
  std::atomic<std::uint64_t> streak_{0};
  ShardRevoke revoke_;
  std::unique_ptr<ShardRevoke[]> shard_revoke_;  ///< sharded tables only
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> revocations_{0};
  std::atomic<std::uint64_t> revoke_cycles_{0};
  std::atomic<std::uint64_t> rebiases_{0};
};

}  // namespace sprwl::core
