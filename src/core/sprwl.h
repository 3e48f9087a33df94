// SpRWL — Speculative Read-Write Lock (the paper's core contribution).
//
// Writers execute their critical sections as hardware transactions and, at
// commit time, check for active readers, self-aborting if any is found
// (base algorithm, Section 3.1 / Alg. 1). Readers execute completely
// *uninstrumented*: they advertise a per-thread flag with a fence, run
// plain code, and clear the flag — so they are immune to every HTM
// limitation (capacity, syscalls, interrupts). Safety follows from HTM's
// atomic publish plus strong isolation on the reader flags (Figs. 1-2 of
// the paper; emulated faithfully by htm::Engine, see DESIGN.md).
//
// On top of the base algorithm this implementation provides everything the
// paper describes; the Config field that switches a feature, if any, is
// named in parentheses:
//
//  * reader synchronization (Alg. 2): readers wait for the active writer
//    expected to finish last, and join already-waiting readers so their
//    start times align (Config::scheduling at kRWait / kRSync);
//  * writer synchronization (Alg. 3): a writer aborted by a reader delays
//    its retry so its commit lands δ cycles after the last active reader
//    ends (Config::scheduling at kFull, delta_fraction);
//  * reader-HTM-first (§3.4): readers optimistically try one-shot HTM and
//    fall back to the uninstrumented path on capacity/exhaustion
//    (Config::reader_htm_first);
//  * a choice of reader tracker (Config::tracking, core/tracker.h): the
//    flags, SNZI (§3.4: writers check one root word instead of scanning
//    the O(threads) state array), or an adaptive switch between the two;
//  * timed waits on the timestamp counter instead of spinning (§3.4);
//  * the versioned-SGL reader-starvation fix sketched in §3.3
//    (Config::versioned_sgl, off by default as in the paper);
//  * BRAVO-style global reader bias (Config::bravo_bias, core/bias.h,
//    DESIGN.md §12): biased readers publish into a shared
//    bravo::ReaderTable instead of the per-lock tracker, which writers
//    drain on revocation. With the lazy plane below, a cold lock costs
//    O(1) words (workloads/lock_table.h depends on it);
//  * MVCC snapshot readers (read_snapshot, DESIGN.md §14) whenever the
//    installed engine retains versions.
//
// The degradation rules of DESIGN.md §8 (backoff, retry budget,
// stalled-reader watchdog, lemming avoidance) are always on, tuned by the
// constants at the top of the class.
//
// Per-lock tracking state (state array, reader tracker, scheduling clocks,
// EMAs, stats) lives in a lazily allocated Plane, never built for locks
// that only see bias-path or HTM-path readers. Building it charges no
// virtual time, so runs are bit-identical with eager allocation. The plane
// holds eight estimate slots per kind, one lock-wide block of relaxed
// statistics counters, and one line per thread (the words other threads
// poll). Those lines come in blocks of two, each installed on the first
// store of either of its threads: a 28-thread variant(kFull) lock takes
// 952 bytes with the shell and its plane, plus 128 per block (2,744 with
// all 14). The shell points to its Config, which a lock table's locks
// share.
//
// Duration estimates use a per-critical-section-id exponential moving
// average sampled on a single thread (§3.2.1); critical sections are
// identified by the integer cs_id passed to read()/write(). Ids map to
// cs_id % 8, so ids 0-7 each have their own estimate and ids that are
// equal modulo 8 share one.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/cacheline.h"
#include "common/ema.h"
#include "common/platform.h"
#include "common/scope_exit.h"
#include "common/trace.h"
#include "core/bias.h"
#include "core/config.h"
#include "core/tracker.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/sgl.h"
#include "locks/stats.h"

namespace sprwl::core {

class alignas(kCacheLineSize) SpRWLock {
 public:
  /// Explicit-abort codes (Intel _xabort-style).
  static constexpr std::uint8_t kCodeLockBusy = 0x01;
  static constexpr std::uint8_t kCodeReader = 0x02;

  // Graceful degradation under adverse schedules (DESIGN.md §8).
  /// First delay of a writer's backoff after a conflict or spurious abort;
  /// it doubles up to kBackoffMaxCycles.
  static constexpr std::uint64_t kBackoffBaseCycles = 120;
  static constexpr std::uint64_t kBackoffMaxCycles = 8'192;
  /// Virtual time a writer may spend retrying HTM before escalating to the
  /// SGL: far above any healthy retry sequence, it bounds abort storms.
  static constexpr std::uint64_t kWriterRetryBudgetCycles = 8'000'000;
  /// Stalled-reader watchdog: reader aborts for longer than
  /// max(slack, multiplier x the sampled reader EMA) escalate to the SGL.
  static constexpr double kReaderStallMultiplier = 16.0;
  static constexpr std::uint64_t kReaderStallSlackCycles = 64'000;
  /// Weight of the newest sample in every duration estimate (§3.2.1).
  static constexpr double kEmaAlpha = 0.125;

  /// `make_tracker` replaces the tracker Config::tracking names (the
  /// checker builds its mutants this way); null keeps the named one.
  explicit SpRWLock(Config cfg, TrackerFactory make_tracker = nullptr)
      : SpRWLock(std::make_shared<const Config>(std::move(cfg)),
                 make_tracker) {}

  /// Shares one Config among many locks (a lock table builds every lock
  /// from one), so a shell holds a pointer instead of a copy.
  explicit SpRWLock(std::shared_ptr<const Config> cfg,
                    TrackerFactory make_tracker = nullptr)
      : bias_(checked(cfg)),
        cfg_(std::move(cfg)),
        make_tracker_(make_tracker != nullptr ? make_tracker
                                              : tracker_for(cfg_->tracking)) {}

  ~SpRWLock() { delete plane_.load(std::memory_order_acquire); }
  SpRWLock(const SpRWLock&) = delete;
  SpRWLock& operator=(const SpRWLock&) = delete;

  /// Current reader-tracking structure (for tests and introspection):
  /// true = SNZI, false = per-thread flags.
  bool tracking_with_snzi() const {
    const Plane* p = plane_peek();
    return p != nullptr ? p->tracker_->uses_snzi()
                        : cfg_->tracking == Tracking::kSnzi;
  }
  bool tracking_transition_active() const {
    const Plane* p = plane_peek();
    return p != nullptr && p->tracker_->in_transition();
  }

  /// Leaf count of the SNZI tree (0 without one). Forces the lazy plane:
  /// callers asking about tree geometry want the tree the lock would use.
  std::size_t snzi_leaf_count() { return plane().tracker_->snzi_leaves(); }

  /// Virtual cycles spent in commit-time reader scans that ran to
  /// completion without finding a reader (an abort unwinds before the
  /// sample is taken), and how many such scans there were. The NUMA bench
  /// divides them to show the sharded scan's smaller read set.
  std::uint64_t commit_scan_cycles() const {
    return counter(Counters::kScanCycles);
  }
  std::uint64_t commit_scan_count() const { return counter(Counters::kScans); }

  /// Executes f as a read-only critical section identified by cs_id (its
  /// duration estimate is slot cs_id % 8; see the header comment).
  template <class F>
  void read(int cs_id, F&& f) {
    read_impl(cs_id, locks::kNoDeadline, std::forward<F>(f));
  }

  /// read() bounded by a relative virtual-time budget (cycles). Returns
  /// kTimeout — with every advertisement unwound (flag/SNZI/slot/waiting
  /// version) — if the lock cannot be entered before the deadline. A zero
  /// or clock-wrapping budget throws std::invalid_argument at entry.
  template <class F>
  locks::AcquireResult try_read_for(int cs_id, std::uint64_t budget_cycles,
                                    F&& f) {
    return read_impl(cs_id, locks::checked_deadline(budget_cycles),
                     std::forward<F>(f));
  }

  /// write() bounded by a relative virtual-time budget (cycles). Once the
  /// section body has committed (HTM) or the SGL is held (point of no
  /// return), the operation completes even if the deadline passes
  /// mid-section; kTimeout is only returned from pre-entry waits, with the
  /// writer flag cleared and any partial bias revocation re-armed.
  template <class F>
  locks::AcquireResult try_write_for(int cs_id, std::uint64_t budget_cycles,
                                     F&& f) {
    return write_impl(cs_id, locks::checked_deadline(budget_cycles),
                      std::forward<F>(f));
  }

  /// Executes f as a *snapshot* read section (DESIGN.md §14) when the
  /// installed engine retains versions (EngineConfig::retain_versions > 0),
  /// and as a plain read() otherwise: pins the engine's version clock at
  /// entry and routes every Shared<T> load inside f through the
  /// multi-version lookup, so f observes the committed state as of the pin
  /// no matter how long it runs — and registers nothing a writer could wait
  /// on. f must be read-only and re-runnable: when the pinned version
  /// leaves the bounded version ring mid-section (htm::SnapshotMiss) the
  /// section re-runs as a normal registered read, the same re-execution
  /// contract the HTM-first reader path already imposes.
  template <class F>
  void read_snapshot(int cs_id, F&& f) {
    htm::Engine* engine = htm::Engine::current();
    if (engine == nullptr || !engine->retains_versions()) {
      read(cs_id, std::forward<F>(f));
      return;
    }
    checked_tid();  // loud entry validation, like every other entry point
    for (;;) {
      // Pin only while the SGL is observed free and unchanged across the
      // pin. An SGL-fallback writer publishes each store of its section
      // with its own write version, so a snapshot pinned mid-fallback
      // could observe a torn prefix of that section; HTM writers are
      // immune (one commit publishes one version). Same state on both
      // sides of the pin ⇒ no acquisition happened in between (lock and
      // unlock each bump the word), so the pin cannot straddle one. The
      // re-check must NOT go through Shared::load — the thread is pinned
      // by then and the lookup would serve the word as of the pin,
      // validating unconditionally — so it reads raw and charges the load
      // explicitly.
      const std::uint64_t s0 = gl_.state();
      if ((s0 & 1) == 0) {
        engine->snapshot_begin();
        platform::advance(g_costs.load);
        if (gl_.state_raw() == s0) break;
        engine->snapshot_end();
      }
      platform::pause();
    }
    bool missed = false;
    {
      // The unpin lives in a ScopeExit so every unwind path — SnapshotMiss,
      // an exception out of f, the chaos harness's RunCancelled — releases
      // the reclamation pin; a leaked pin silently wedges version
      // reclamation for the rest of the run.
      ScopeExit unpin([&] { engine->snapshot_end(); });
      fault::checkpoint(SchedKind::kReadEnter, this);
      try {
        f();
        fault::checkpoint(SchedKind::kReadExit, this);
      } catch (const htm::SnapshotMiss&) {
        missed = true;
      }
    }
    if (!missed) {
      snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // The ring reclaimed a version this snapshot still needed (long
    // section + small retain_versions). Fall back to a registered read —
    // correct, just no longer invisible to writers.
    snapshot_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    read_impl(cs_id, locks::kNoDeadline, std::forward<F>(f));
  }

 private:
  template <class F>
  locks::AcquireResult read_impl(int cs_id, std::uint64_t deadline, F&& f) {
    const int tid = checked_tid();
    const auto timed_out = [] {
      trace::emit(trace::Event::kReadTimeout);
      return locks::AcquireResult::kTimeout;
    };

    switch (bias_.try_read(tid, deadline, gl_, this, f)) {
      case BiasFront::Read::kDone: return locks::AcquireResult::kAcquired;
      case BiasFront::Read::kTimeout: return timed_out();
      case BiasFront::Read::kSlow: break;
    }

    if (cfg_->reader_htm_first && try_reader_htm(f)) {
      trace::emit(trace::Event::kReadHtmCommit);
      htm_reads_.fetch_add(1, std::memory_order_relaxed);
      bias_.after_read(tid);
      return locks::AcquireResult::kAcquired;
    }

    // Uninstrumented path.
    Plane& p = plane();
    ReaderTracker& tracker = *p.tracker_;
    bool have_pass = false;       // versioned-SGL bypass (§3.3)
    std::uint64_t pass_below = 0;
    int token = 0;                // which structure took the arrival
    for (;;) {
      // Between iterations nothing is advertised, so expiry needs no
      // unwind here (waiting_ver is cleared before each defer exit).
      if (locks::deadline_expired(deadline)) return timed_out();
      if (cfg_->reader_sync() && !have_pass &&
          !readers_wait(p, tid, deadline)) {
        return timed_out();
      }
      if (cfg_->writer_sync()) {
        p.own(tid).clock_r.store(platform::now() + read_estimate(p, cs_id),
                                 std::memory_order_relaxed);
      }
      token = tracker.arrive(tid);
      if (cfg_->versioned_sgl) {
        p.own(tid).waiting_ver.store(0, std::memory_order_release);
      }
      if (!gl_.is_locked()) break;
      if (have_pass && gl_.version() > pass_below) break;  // reader priority
      // Defer to the SGL holder (Alg. 1, reader_gl_sync).
      trace::emit(trace::Event::kReaderDeferSgl);
      tracker.depart(tid, token);
      if (cfg_->versioned_sgl) {
        const std::uint64_t v0 = gl_.version();
        p.own(tid).waiting_ver.store((v0 << 1) | 1, std::memory_order_seq_cst);
        while (gl_.is_locked() && gl_.version() <= v0) {
          if (locks::deadline_expired(deadline)) {
            // Retract the published waiting version before abandoning or a
            // versioned-SGL writer's drain spins on a phantom waiter.
            p.own(tid).waiting_ver.store(0, std::memory_order_release);
            return timed_out();
          }
          locks::deadline_pause(deadline);
        }
        have_pass = true;
        pass_below = v0;
      } else {
        while (gl_.is_locked()) {
          if (locks::deadline_expired(deadline)) return timed_out();
          locks::deadline_pause(deadline);
        }
      }
    }

    // Dangerous window: registered, section not yet run — what the
    // stalled-reader watchdog and the chaos harness exercise. It is a timed
    // reader's point of no return: the section runs even if the deadline
    // passes here (an unwind would cost what the section's release does).
    fault::checkpoint(SchedKind::kReadEnter, this);
    trace::emit(trace::Event::kReadUninsEnter);
    const std::uint64_t cs_start = platform::now();
    {
      ScopeExit release([&] {
        htm::memory_fence();  // reads must complete before the flag clears
        tracker.depart(tid, token);
        trace::emit(trace::Event::kReadUninsExit);
      });
      std::forward<F>(f)();
      fault::checkpoint(SchedKind::kReadExit, this);
    }
    if (tid == kSamplerTid) {
      DurationEma& ema = p.read_ema_[ema_slot(cs_id)];
      ema.record(platform::now() - cs_start, kEmaAlpha);
      read_estimate_hint_.store(ema.estimate(), std::memory_order_relaxed);
      tracker.adapt(read_estimate(p, cs_id));
    }
    p.counters_.add(Counters::kUninsReads);
    bias_.after_read(tid);
    return locks::AcquireResult::kAcquired;
  }

 public:
  /// Executes f as an update critical section identified by cs_id (its
  /// duration estimate is slot cs_id % 8, as for read()).
  template <class F>
  void write(int cs_id, F&& f) {
    write_impl(cs_id, locks::kNoDeadline, std::forward<F>(f));
  }

 private:
  template <class F>
  locks::AcquireResult write_impl(int cs_id, std::uint64_t deadline, F&& f) {
    const int tid = checked_tid();
    htm::Engine* engine = htm::Engine::current();
    assert(engine != nullptr && "SpRWL requires an installed htm::Engine");

    bias_.before_write();

    // Advertise in the plane only when one exists or the lock builds it
    // eagerly: under bias a cold lock has no plane and therefore no
    // slow-path readers to schedule against — forcing a plane here would
    // defeat the O(1)-word cold footprint.
    const bool flagged = cfg_->reader_sync() &&
                         !(bias_.defers_plane() && plane_peek() == nullptr);
    Plane* wp = flagged ? &plane() : plane_peek();
    if (flagged) {
      // Advertise the writer and its expected end time (Alg. 2).
      wp->own(tid).clock_w.store(
          platform::now() + write_estimate(*wp, cs_id),
          std::memory_order_relaxed);
      wp->state_[tid].store(StateArray::kWriter);
      htm::memory_fence();
    }
    ScopeExit clear_flag([&] {
      if (flagged) wp->state_[tid].store(StateArray::kIdle);
    });
    fault::checkpoint(SchedKind::kWriteEnter, this);

    // Escalation to the (versioned) SGL; `why` records which degradation
    // path fired. Returns false if the deadline expired before the SGL was
    // acquired — once it is held, the write runs to completion.
    int attempts = 0;
    const auto escalate = [&](locks::Escalation why) -> bool {
      plane().counters_.add_escalation(why);
      trace::emit(why == locks::Escalation::kStalledReader
                      ? trace::Event::kStalledReaderEscalate
                      : trace::Event::kWriteSglEnter,
                  static_cast<std::uint32_t>(attempts));
      if (!fallback_write(cs_id, tid, deadline, f)) return false;
      trace::emit(trace::Event::kWriteSglExit);
      plane().counters_.add(Counters::kGlWrites);
      return true;
    };
    const auto timed_out = [&]() -> locks::AcquireResult {
      trace::emit(trace::Event::kWriteTimeout);
      return locks::AcquireResult::kTimeout;  // clear_flag unwinds the flag
    };

    std::uint64_t backoff = 0;       // current exponential delay
    std::uint64_t retry_start = 0;   // first attempt of the current streak
    std::uint64_t stall_since = 0;   // first reader abort of the streak
    bool retrying = false;
    bool stalled = false;
    for (;;) {
      if (locks::deadline_expired(deadline)) return timed_out();
      while (gl_.is_locked()) {
        if (locks::deadline_expired(deadline)) return timed_out();
        locks::deadline_pause(deadline);
      }
      // Revoke the bias before every attempt: the drain guarantees no
      // fast-path reader is live, and the in-transaction bias subscription
      // catches any re-bias after it (DESIGN.md §12).
      if (!bias_.revoke(deadline)) return timed_out();
      ++attempts;
      const std::uint64_t attempt_start = platform::now();
      if (!retrying) {
        retrying = true;
        retry_start = attempt_start;
      }
      const htm::TxStatus status = engine->try_transaction([&] {
        if (gl_.is_locked()) engine->abort_tx(kCodeLockBusy);  // subscription
        f();
        check_for_readers(engine, tid);
      });
      if (status.committed()) {
        // Pin the data commit's version before clear_flag's kIdle publish
        // overwrites last_commit_version() (the SI checker needs the
        // version that stamped the section's lines, not the metadata's).
        engine->note_section_version();
        if (tid == kSamplerTid) {
          if (Plane* p = plane_peek()) {
            p->write_ema_[ema_slot(cs_id)].record(
                platform::now() - attempt_start, kEmaAlpha);
          }
        }
        trace::emit(trace::Event::kWriteHtmCommit,
                    static_cast<std::uint32_t>(attempts));
        // Inline counter (like htm_reads_): recording through the plane's
        // counters would allocate the plane for a lock whose only traffic
        // is HTM commits — exactly the cold case the lazy plane exists
        // for. stats() merges the counters, so totals match.
        htm_writes_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      const locks::AbortClass why = classify(status);
      Counters& counters = plane().counters_;
      counters.add_abort(why);
      const bool reader_abort = why == locks::AbortClass::kReader;
      if (reader_abort) {
        counters.add(Counters::kReaderAborts);
        trace::emit(trace::Event::kWriteAbortReader);
      }
      if (status.cause == htm::AbortCause::kCapacity) {
        // Retrying cannot help a section that does not fit; fall back now.
        if (!escalate(locks::Escalation::kCapacity)) return timed_out();
        break;
      }
      if (why == locks::AbortClass::kLockBusy) {
        // Lemming avoidance: the abort says nothing about *this* section.
        // Forgive the attempt (and restart the budget clock: waiting for
        // the SGL is not retrying) so one SGL writer does not drag the
        // whole population onto the global lock.
        --attempts;
        retrying = false;
        stalled = false;
        counters.add_escalation(locks::Escalation::kLemmingAvoided);
        trace::emit(trace::Event::kLemmingAvoided);
        continue;
      }
      if (attempts >= cfg_->max_retries) {
        if (!escalate(locks::Escalation::kRetryExhausted)) return timed_out();
        break;
      }
      const std::uint64_t now = platform::now();
      if (now - retry_start > kWriterRetryBudgetCycles) {
        if (!escalate(locks::Escalation::kBudgetExhausted)) return timed_out();
        break;
      }
      if (reader_abort) {
        if (!stalled) {
          stalled = true;
          stall_since = attempt_start;
        }
        if (now - stall_since > stall_threshold()) {
          // The reader blocking us has been active far longer than readers
          // ever run: presume it descheduled with its flag raised and stop
          // burning transactions against it.
          if (!escalate(locks::Escalation::kStalledReader)) return timed_out();
          break;
        }
        if (cfg_->writer_sync()) {
          trace::emit(trace::Event::kWriterWait);
          writer_wait(cs_id, tid, deadline);
        }
      } else {
        stalled = false;
        // Conflict or interrupt: back off exponentially so an abort storm
        // degrades throughput instead of melting it.
        backoff = backoff == 0
                      ? kBackoffBaseCycles
                      : std::min<std::uint64_t>(backoff * 2, kBackoffMaxCycles);
        trace::emit(trace::Event::kWriterBackoff,
                    static_cast<std::uint32_t>(backoff));
        const std::uint64_t target = locks::cap_wait(now + backoff, deadline);
        if (target > platform::now()) platform::wait_until(target);
      }
    }
    fault::checkpoint(SchedKind::kWriteExit, this);
    return locks::AcquireResult::kAcquired;
  }

 public:
  locks::LockStats stats() const {
    locks::LockStats s;
    if (const Plane* p = plane_peek()) s = p->counters_.snapshot();
    s.reads.htm += htm_reads_.load(std::memory_order_relaxed);
    s.reads.unins += bias_.reads();
    s.writes.htm += htm_writes_.load(std::memory_order_relaxed);
    return s;
  }

  /// Writer aborts caused by an active reader (the paper's "reader" abort
  /// class, reported separately from other explicit aborts).
  std::uint64_t reader_abort_count() const {
    return counter(Counters::kReaderAborts);
  }

  void reset_stats() {
    if (Plane* p = plane_peek()) p->counters_.reset();
    htm_reads_.store(0, std::memory_order_relaxed);
    htm_writes_.store(0, std::memory_order_relaxed);
    snapshot_reads_.store(0, std::memory_order_relaxed);
    snapshot_fallbacks_.store(0, std::memory_order_relaxed);
    bias_.reset_stats();
  }

  // --- BRAVO introspection (tests and the lock-table bench) ---------------

  /// Raw view of the bias word (no virtual-time charge).
  bool bias_is_on() const { return bias_.is_on(); }
  std::uint64_t bias_read_count() const { return bias_.reads(); }
  std::uint64_t revocation_count() const { return bias_.revocations(); }
  /// Total virtual cycles writers spent in revocation drains.
  std::uint64_t revocation_cycles() const { return bias_.revoke_cycles(); }
  std::uint64_t rebias_count() const { return bias_.rebiases(); }
  /// Per-shard revocation-latency EMA (socket-sharded bravo tables only;
  /// 0 = no sample yet, or the table is not sharded). The re-bias cooldown
  /// a reader on `shard`'s socket observes is BiasFront::kRebiasCooldown
  /// times this.
  std::uint64_t shard_revoke_ema(int shard) const {
    return bias_.shard_revoke_ema(shard);
  }
  /// Snapshot sections that completed against their pinned version.
  std::uint64_t snapshot_read_count() const {
    return snapshot_reads_.load(std::memory_order_relaxed);
  }
  /// Snapshot sections whose pinned version left the bounded ring
  /// (htm::SnapshotMiss) and re-ran as a registered read.
  std::uint64_t snapshot_fallback_count() const {
    return snapshot_fallbacks_.load(std::memory_order_relaxed);
  }
  /// Dense id in the shared reader table (bravo only; 0 otherwise).
  std::uint32_t lock_id() const noexcept { return bias_.lock_id(); }
  bool has_plane() const noexcept { return plane_peek() != nullptr; }

  /// Raw (uncharged) view of every per-lock reader-tracking structure at
  /// quiesce: no flag raised, no socket count pending, no SNZI arrival
  /// without its depart. The cancellation-unwind chaos tests assert this
  /// after timed readers raced preemptions and abort storms — a phantom
  /// reader left by an abandoned acquisition shows up here. Bravo table
  /// slots are global state; assert those through ReaderTable directly.
  bool tracking_quiescent() const {
    const Plane* p = plane_peek();
    return p == nullptr ||
           (p->tracker_->quiescent_raw() && !p->state_.any_reader_raw());
  }

  /// Bytes this lock owns: the O(1)-word shell plus, if some operation
  /// forced it, the lazily allocated tracking plane. The shared bravo
  /// table is *not* included — it amortizes over every registered lock
  /// (workloads report it separately).
  std::size_t footprint_bytes() const {
    std::size_t b = sizeof(*this) + bias_.bytes();
    if (const Plane* p = plane_peek()) b += p->bytes();
    return b;
  }

  const Config& config() const noexcept { return *cfg_; }
  static const char* name() noexcept { return "SpRWL"; }

 private:
  /// Per-section estimate slots: cs_id maps to cs_id % kEmaSlots.
  static constexpr std::size_t kEmaSlots = 8;
  /// Thread that samples critical-section durations (§3.2.1).
  static constexpr int kSamplerTid = 0;
  /// Expected duration, in cycles, used before the first sample arrives.
  static constexpr std::uint64_t kBootstrapEstimate = 500;
  /// HTM attempts for the optimistic reader path (§3.4).
  static constexpr int kReaderHtmRetries = 10;

  /// One line per thread, written only by that thread and polled by the
  /// others: the scheduling clocks and waits of Algs. 2/3 and §3.3.
  struct alignas(kCacheLineSize) PerThread {
    std::atomic<std::uint64_t> clock_w{0};      ///< expected end as a writer
    std::atomic<std::uint64_t> clock_r{0};      ///< expected end as a reader
    std::atomic<int> waiting_for{-1};           ///< writer it waits on (Alg. 2)
    std::atomic<std::uint64_t> waiting_ver{0};  ///< versioned-SGL wait (§3.3)
  };
  static_assert(sizeof(PerThread) == kCacheLineSize);

  /// The lines of threads 2k and 2k+1, allocated together on the first
  /// store of either: most planes only ever see a few threads.
  struct Block {
    static constexpr int kLines = 2;
    PerThread lines[kLines];
  };

  /// The plane's statistics: one relaxed atomic per counter, shared by
  /// every thread and bumped uncharged, as htm_reads_ is in the shell. It
  /// holds the LockStats counters SpRWL records (unins reads, GL writes,
  /// the abort classes and the escalations) and the reader-abort and
  /// commit-scan counters; stats() adds the shell's own.
  class Counters {
   public:
    enum Id : std::size_t {
      kUninsReads,
      kGlWrites,
      kAborts,  ///< one per locks::AbortClass
      kEscalations = kAborts + locks::kAbortClasses,  ///< per locks::Escalation
      kReaderAborts = kEscalations + locks::kEscalations,
      kScanCycles,  ///< cycles of commit scans that found no reader
      kScans,
      kCount,
    };

    void add(std::size_t id, std::uint64_t n = 1) noexcept {
      n_[id].fetch_add(n, std::memory_order_relaxed);
    }
    void add_abort(locks::AbortClass c) noexcept {
      add(kAborts + static_cast<std::size_t>(c));
    }
    void add_escalation(locks::Escalation e) noexcept {
      add(kEscalations + static_cast<std::size_t>(e));
    }
    std::uint64_t get(std::size_t id) const noexcept {
      return n_[id].load(std::memory_order_relaxed);
    }

    locks::LockStats snapshot() const noexcept {
      locks::LockStats s;
      s.reads.unins = get(kUninsReads);
      s.writes.gl = get(kGlWrites);
      for (std::size_t c = 0; c < locks::kAbortClasses; ++c) {
        s.aborts.add(static_cast<locks::AbortClass>(c), get(kAborts + c));
      }
      for (std::size_t e = 0; e < locks::kEscalations; ++e) {
        s.escalations.add(static_cast<locks::Escalation>(e),
                          get(kEscalations + e));
      }
      return s;
    }

    void reset() noexcept {
      for (auto& c : n_) c.store(0, std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> n_[kCount] = {};
  };

  /// Everything whose size scales with max_threads (or holds a tree).
  /// Construction is plain allocation and raw stores — no engine access —
  /// and the engine assigns line ids on first *access*.
  struct Plane {
    Plane(const Config& cfg, TrackerFactory make_tracker)
        : state_(cfg),
          tracker_(make_tracker(cfg, state_)),
          block_count_(static_cast<std::size_t>(cfg.max_threads +
                                                Block::kLines - 1) /
                       Block::kLines),
          blocks_(std::make_unique<std::atomic<Block*>[]>(block_count_)) {}
    ~Plane() {
      for (std::size_t i = 0; i < block_count_; ++i) {
        delete blocks_[i].load(std::memory_order_acquire);
      }
    }

    /// Heap bytes of the plane (per-lock footprint accounting): the
    /// per-thread blocks count only once installed.
    std::size_t bytes() const {
      return sizeof(Plane) + state_.bytes() + tracker_->bytes() +
             block_count_ * sizeof(blocks_[0]) +
             blocks_installed() * sizeof(Block);
    }

    std::size_t blocks_installed() const {
      return static_cast<std::size_t>(std::count_if(
          blocks_.get(), blocks_.get() + block_count_, [](const auto& b) {
            return b.load(std::memory_order_acquire) != nullptr;
          }));
    }

    /// Thread `tid`'s own line, for its stores: the first one installs the
    /// line's block by CAS (the block's other thread may race it).
    PerThread& own(int tid) {
      std::atomic<Block*>& slot = blocks_[block_of(tid)];
      Block* b = slot.load(std::memory_order_acquire);
      if (b == nullptr) {
        auto fresh = std::make_unique<Block>();
        if (slot.compare_exchange_strong(b, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          b = fresh.release();
        }  // else `b` is the winner's block and `fresh` frees itself
      }
      return b->lines[tid % Block::kLines];
    }

    /// Another thread's line, for reads: a thread that never stored reads
    /// as the idle line (0, 0, -1, 0) its block would start with.
    const PerThread& peer(int tid) const {
      static const PerThread idle;
      const Block* b = blocks_[block_of(tid)].load(std::memory_order_acquire);
      return b != nullptr ? b->lines[tid % Block::kLines] : idle;
    }

    static std::size_t block_of(int tid) {
      return static_cast<std::size_t>(tid / Block::kLines);
    }

    StateArray state_;
    std::unique_ptr<ReaderTracker> tracker_;
    std::size_t block_count_;
    std::unique_ptr<std::atomic<Block*>[]> blocks_;
    DurationEma read_ema_[kEmaSlots];
    DurationEma write_ema_[kEmaSlots];
    /// Every thread writes these lines; the fields above are read-mostly.
    alignas(kCacheLineSize) Counters counters_;
  };

  static std::size_t ema_slot(int cs_id) noexcept {
    return static_cast<std::size_t>(cs_id) % kEmaSlots;
  }

  /// Construction-time validation, ahead of every member that could
  /// register with shared state.
  static const Config& checked(const std::shared_ptr<const Config>& p) {
    if (p == nullptr) throw std::invalid_argument("SpRWLock: null Config");
    const Config& cfg = *p;
    if (cfg.max_threads < 1) {
      throw std::invalid_argument("SpRWLock: max_threads must be >= 1");
    }
    if (cfg.snzi_levels < 0 || cfg.snzi_levels > snzi::Snzi::kMaxLevels) {
      throw std::invalid_argument(
          "SpRWLock: snzi_levels outside [0, Snzi::kMaxLevels]");
    }
    if (!(cfg.delta_fraction >= 0.0 && cfg.delta_fraction <= 1.0)) {
      throw std::invalid_argument("SpRWLock: delta_fraction outside [0, 1]");
    }
    if (cfg.socket_sharded_tracking && cfg.tracking != Tracking::kFlags) {
      throw std::invalid_argument(
          "SpRWLock: socket_sharded_tracking shards the flags tracker only");
    }
    const sim::Topology& t = cfg.topology;
    if (cfg.socket_sharded_tracking && t.sockets > 1 &&
        (t.cores_per_socket <= 0 ||
         t.sockets * t.cores_per_socket < cfg.max_threads)) {
      // An undersized topology would wrap two tids onto one state slot.
      throw std::invalid_argument(
          "SpRWLock: socket_sharded_tracking needs sockets * "
          "cores_per_socket >= max_threads (see sim::Topology::split)");
    }
    return cfg;
  }

  Plane* plane_peek() const noexcept {
    return plane_.load(std::memory_order_acquire);
  }

  /// One plane counter; 0 without a plane.
  std::uint64_t counter(std::size_t id) const {
    const Plane* p = plane_peek();
    return p != nullptr ? p->counters_.get(id) : 0;
  }

  static locks::AbortClass classify(const htm::TxStatus& status) noexcept {
    return locks::classify_abort(status, kCodeLockBusy, kCodeReader);
  }

  /// The lazily allocated tracking plane; builds it on first call.
  Plane& plane() {
    Plane* p = plane_peek();
    return p != nullptr ? *p : install_plane();
  }

  Plane& install_plane() {
    auto fresh = std::make_unique<Plane>(*cfg_, make_tracker_);
    Plane* expected = nullptr;
    if (plane_.compare_exchange_strong(expected, fresh.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      bias_.plane_installed();
      return *fresh.release();
    }
    return *expected;  // lost the install race; `fresh` frees itself
  }

  /// Entry-point thread validation: a dense id >= max_threads would index
  /// out of bounds in every per-thread array of this lock, and release
  /// builds used to do exactly that (the assert compiled away). Failing
  /// loudly at section entry turns a mis-sized Config into a diagnosable
  /// error instead of silent corruption.
  int checked_tid() const {
    const int tid = platform::thread_id();
    if (tid < 0 || tid >= cfg_->max_threads) {
      throw std::out_of_range(
          "SpRWLock: thread id " + std::to_string(tid) +
          " outside [0, max_threads=" + std::to_string(cfg_->max_threads) +
          "); raise Config::max_threads or give the thread a dense id "
          "(sim::Simulator / ThreadIdScope)");
    }
    return tid;
  }

  std::uint64_t read_estimate(Plane& p, int cs_id) const {
    const std::uint64_t e = p.read_ema_[ema_slot(cs_id)].estimate();
    return e != 0 ? e : kBootstrapEstimate;
  }
  std::uint64_t write_estimate(Plane& p, int cs_id) const {
    const std::uint64_t e = p.write_ema_[ema_slot(cs_id)].estimate();
    return e != 0 ? e : kBootstrapEstimate;
  }

  /// How long a writer tolerates consecutive reader aborts before presuming
  /// the blocking reader stalled (descheduled while registered): a healthy
  /// reader finishes within a few EMAs.
  std::uint64_t stall_threshold() const {
    const auto scaled = static_cast<std::uint64_t>(
        kReaderStallMultiplier *
        static_cast<double>(read_estimate_hint_.load(std::memory_order_relaxed)));
    return std::max(kReaderStallSlackCycles, scaled);
  }

  /// §3.4: optimistic one-shot HTM execution of a reader.
  template <class F>
  bool try_reader_htm(F&& f) {
    htm::Engine* engine = htm::Engine::current();
    if (engine == nullptr) return false;
    int attempts = 0;
    for (;;) {
      if (gl_.is_locked()) return false;  // no point speculating
      ++attempts;
      const htm::TxStatus status = engine->try_transaction([&] {
        if (gl_.is_locked()) engine->abort_tx(kCodeLockBusy);
        f();
      });
      if (status.committed()) return true;
      plane().counters_.add_abort(classify(status));
      if (status.cause == htm::AbortCause::kCapacity ||
          attempts >= kReaderHtmRetries) {
        return false;
      }
    }
  }

  /// Commit-time reader check, executed inside the writer's transaction.
  /// The wrapper samples the scan's virtual-cycle cost; an abort_tx unwinds
  /// past the sample, so only scans that found no reader are measured.
  void check_for_readers(htm::Engine* engine, int tid) {
    const std::uint64_t scan_start = platform::now();
    if (readers_visible(tid)) engine->abort_tx(kCodeReader);
    if (Plane* p = plane_peek()) {
      p->counters_.add(Counters::kScanCycles, platform::now() - scan_start);
      p->counters_.add(Counters::kScans);
    }
  }

  bool readers_visible(int tid) {
    switch (bias_.subscribe()) {
      case BiasFront::Scan::kReaders: return true;
      case BiasFront::Scan::kNoPlane: return false;
      case BiasFront::Scan::kAskTracker: break;
    }
    return plane().tracker_->subscribe(tid);
  }

  /// Alg. 2 Readers_Wait: wait for the active writer expected to end last,
  /// or join a reader that is already waiting for one. Returns false iff
  /// the deadline expired mid-wait — with waiting_for already reset, so
  /// readers that joined us are unaffected (they copied the *writer's* tid
  /// at join time and wait on that writer, not on us).
  bool readers_wait(Plane& p, int tid, std::uint64_t deadline) {
    int wait_for = -1;
    bool joined = false;
    std::uint64_t max_end = 0;
    for (int t = 0; t < cfg_->max_threads; ++t) {
      if (t == tid) continue;
      if (p.state_[t].load() == StateArray::kWriter) {
        const auto end = p.peer(t).clock_w.load(std::memory_order_relaxed);
        if (wait_for == -1 || end > max_end) {
          max_end = end;
          wait_for = t;
        }
      } else if (cfg_->reader_join()) {
        const int other = p.peer(t).waiting_for.load(std::memory_order_acquire);
        if (other != -1) {
          wait_for = other;  // align our start with that reader's
          joined = true;
          break;
        }
      }
    }
    if (wait_for == -1) return true;
    trace::emit(joined ? trace::Event::kReaderJoin : trace::Event::kReaderWait,
                static_cast<std::uint32_t>(wait_for));
    std::atomic<int>& mine = p.own(tid).waiting_for;
    mine.store(wait_for, std::memory_order_release);
    // Timed wait up to the writer's expected end (§3.4), then poll.
    const std::uint64_t until = locks::cap_wait(
        p.peer(wait_for).clock_w.load(std::memory_order_relaxed), deadline);
    if (until > platform::now()) platform::wait_until(until);
    while (p.state_[wait_for].load() == StateArray::kWriter) {
      if (locks::deadline_expired(deadline)) {
        mine.store(-1, std::memory_order_release);
        return false;
      }
      locks::deadline_pause(deadline);
    }
    mine.store(-1, std::memory_order_release);
    return true;
  }

  /// Alg. 3 writer_wait: delay the retry so the write is expected to end δ
  /// cycles after the last active reader. Without a plane there is no
  /// slow-path reader to wait for (bias readers carry no end-time clock).
  /// The wait target is capped at the deadline; the caller's loop-top
  /// expiry check turns the truncated wait into a timeout.
  void writer_wait(int cs_id, int tid,
                   std::uint64_t deadline = locks::kNoDeadline) {
    Plane* pp = plane_peek();
    if (pp == nullptr) return;
    Plane& p = *pp;
    const std::uint64_t last_reader_end =
        p.tracker_->latest_reader_end(tid, [&](int t) {
          return p.peer(t).clock_r.load(std::memory_order_relaxed);
        });
    if (last_reader_end == 0) return;
    const std::uint64_t dur = write_estimate(p, cs_id);
    const std::uint64_t lead =
        dur - static_cast<std::uint64_t>(static_cast<double>(dur) *
                                         cfg_->delta_fraction);
    const std::uint64_t target = locks::cap_wait(
        last_reader_end > lead ? last_reader_end - lead : last_reader_end,
        deadline);
    if (target > platform::now()) platform::wait_until(target);
  }

  /// Returns false iff the deadline expired before the SGL was acquired.
  /// Holding the SGL is the point of no return: every wait below it
  /// terminates because readers observing the busy SGL defer.
  template <class F>
  bool fallback_write(int cs_id, int tid, std::uint64_t deadline, F&& f) {
    if (!gl_.lock_until(deadline)) return false;
    // Revoke *under* the SGL: a fast-path reader validates the SGL after
    // publishing its slot, so any reader that slipped past the lock is in
    // the table and this drain waits it out; later readers see the busy
    // SGL and defer (DESIGN.md §12).
    bias_.revoke();
    Plane* pp = plane_peek();
    if (cfg_->versioned_sgl && pp != nullptr) {
      // §3.3: let readers that started waiting before this acquisition in.
      const std::uint64_t my_ver = gl_.version();
      for (int t = 0; t < cfg_->max_threads; ++t) {
        if (t == tid) continue;
        auto& wv = pp->peer(t).waiting_ver;
        for (;;) {
          const std::uint64_t v = wv.load(std::memory_order_acquire);
          if ((v & 1) == 0 || (v >> 1) >= my_ver) break;
          platform::pause();
        }
      }
    }
    // Alg. 1 wait_for_readers. No plane = no slow-path reader ever
    // registered = nothing to drain (a reader installing the plane after
    // the peek sees the busy SGL and defers before running).
    if (pp != nullptr) pp->tracker_->drain(tid);
    const std::uint64_t start = platform::now();
    {
      ScopeExit release([&] { gl_.unlock(); });
      f();
      // Under the SGL every store of f published with its own version;
      // the last one is the section's commit timestamp. Pin it before the
      // trailing writer-flag clear publishes over it.
      if (htm::Engine* e = htm::Engine::current()) e->note_section_version();
    }
    if (tid == kSamplerTid) {
      if (Plane* p = plane_peek()) {
        p->write_ema_[ema_slot(cs_id)].record(platform::now() - start,
                                              kEmaAlpha);
      }
    }
    return true;
  }

  // Line 0 of the (line-aligned) shell holds every word the engine sees:
  // the SGL, then the bias front's bias and plane-publish words. Nothing
  // else in the shell is a Shared<> cell, so no other object's words can
  // share their line and virtual time does not depend on where the shell
  // sits.
  locks::SglLock gl_;
  BiasFront bias_;
  std::shared_ptr<const Config> cfg_;
  TrackerFactory make_tracker_;
  std::atomic<Plane*> plane_{nullptr};
  std::atomic<std::uint64_t> snapshot_reads_{0};
  std::atomic<std::uint64_t> snapshot_fallbacks_{0};
  std::atomic<std::uint64_t> htm_reads_{0};
  std::atomic<std::uint64_t> htm_writes_{0};
  /// Latest sampled reader-duration EMA, published by the sampler thread for
  /// the stalled-reader watchdog (which runs on *writer* threads).
  std::atomic<std::uint64_t> read_estimate_hint_{0};
};

}  // namespace sprwl::core
