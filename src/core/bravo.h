// BRAVO-style global visible-readers table (Dice & Kogan, arXiv:1810.01553).
//
// SpRWL's per-lock reader tracking costs O(threads) words *per lock* — fatal
// at the lock-table scale ROADMAP targets (millions of per-key locks, almost
// all cold). BRAVO's observation: reader *registration* does not have to be
// per-lock. One process-global, cache-line-padded slot array is shared by
// every lock; a reader under a biased lock publishes (lock, tid) into its
// hashed slot and skips the lock's flag plane entirely. Writers revoke the
// bias and drain the table before falling back to the per-lock scan, so the
// table only has to make readers *visible*, not countable — hash collisions
// merely make revocation conservative (a writer may wait for a reader of a
// different lock that shares the slot), never unsafe.
//
// The slots are htm::Shared words: occupy() is a strong-isolation CAS and
// release() a strong-isolation store, so both bump their line's version and
// are visible to transactional writers exactly like the per-lock state flags
// (the safety argument of DESIGN.md §12 leans on this).
//
// Slot tags are dense lock ids (register_lock()), not addresses: the virtual
// time a run accumulates must not depend on where the heap placed a lock, or
// runs would be irreproducible. slot_of() mixes (lock id, tid) so that one
// lock's readers spread over the table and one thread's locks do too.
//
// NUMA variant (Config::shard_by_socket — BRAVO's own per-node tables): the
// table becomes one cache-aligned slot shard per socket, each sized from
// that socket's core count, and slot_of() hashes (lock, tid) *within the
// acquirer's socket's shard* — a biased reader only ever touches lines of
// its own socket. Each shard additionally maintains an occupancy summary:
// one word PER THREAD of the socket, packed into the shard's own summary
// line(s), that is STICKY with amortized clears. The thread's first
// registration stores 1 (a plain strong-isolation store, before the
// caller's Dekker fence); the word then stays raised — tracked by a
// thread-private mirror, so steady-state registrations touch no summary
// line at all — until the thread's Config::summary_clear_period-th
// outermost release stores 0 and re-arms the publish. Only the owning
// thread ever writes its word (no read-modify-write, no contention, no
// drainer-side clears racing between drains of different locks; a
// per-shard count word would be a CAS hotspot). A revoking writer walking
// shards in socket order line-ORs the summary line(s) — ONE load per
// line, one line for up to 8 resident threads — and skips the whole
// shard when they read 0. Safety of the skip (DESIGN.md §16): a reader's
// word reads 0 only if its LAST summary write was a clear (outermost
// release, depth 0) — any registration after that stores 1 before the
// fence that precedes its bias validation, and the writer publishes
// kRevoking (core/bias.h) before the fence preceding its summary reads — so a
// writer that reads an all-zero summary either ran after the readers'
// releases or their validations are yet to come and will observe
// kRevoking and back out. A summary word may over-report (stickiness
// IS over-reporting; the drain then scans the shard's slot lines, which
// is merely conservative) but never under-reports a reader inside its
// section.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/aligned.h"
#include "common/cacheline.h"
#include "common/platform.h"
#include "htm/line_set.h"
#include "htm/shared.h"
#include "sim/topology.h"

namespace sprwl::bravo {

class ReaderTable {
 public:
  struct Config {
    /// Upper bound on concurrently running threads; the auto-sized table
    /// holds slots_per_thread slots per thread so fast-path CAS failures
    /// (collisions) stay rare.
    int max_threads = 64;
    int slots_per_thread = 4;
    /// Machine shape; a table sized for more cores than max_threads keeps
    /// collision rates flat when the run oversubscribes sockets.
    sim::Topology topology{};
    /// Explicit slot count override; 0 = auto from the fields above. Tests
    /// and the checker force tiny tables (down to 1 slot) to make collision
    /// and revocation interleavings reachable. With shard_by_socket this is
    /// the slot count *per shard*.
    std::size_t slots = 0;
    /// NUMA sharding: one slot shard per topology socket, each sized from
    /// sockets × cores_per_socket (slots_per_thread slots per core of the
    /// shard's socket) and starting on its own cache line, plus per-shard
    /// occupancy-summary lines (one word per resident thread, written on
    /// registration transitions only) the revocation drain reads first.
    /// Off by default — the global table's layout, costs and traces are
    /// untouched.
    bool shard_by_socket = false;
    /// Sticky-summary clear cadence (shard_by_socket only): a thread's
    /// summary word is cleared on every Nth outermost release and
    /// re-published on the next registration, so steady-state reads pay
    /// no summary stores at all (2 x (store + line_publish) / N cycles
    /// amortized). 1 = clear on every outermost release (exact
    /// transition semantics; the unit tests use this). Larger values
    /// trade drain conservatism — a recently-active shard reads dirty
    /// and gets scanned — for reader throughput.
    int summary_clear_period = 8;
  };

  /// Slots per 64-byte line; the revocation drain reads whole lines.
  static constexpr std::size_t kSlotsPerLine = 8;

  explicit ReaderTable(Config cfg) : cfg_(cfg) {
    if (cfg.shard_by_socket) {
      shards_ = cfg.topology.sockets < 1 ? 1 : cfg.topology.sockets;
      std::size_t per_shard = cfg.slots;
      if (per_shard == 0) {
        // Per-shard sizing comes from the shard's own core count, not the
        // global one: a shard only ever hosts its socket's readers.
        if (cfg.topology.sockets > 1 && cfg.topology.cores_per_socket < 1) {
          throw std::invalid_argument(
              "ReaderTable: shard_by_socket with >1 socket requires "
              "cores_per_socket >= 1 (shard would be empty)");
        }
        const int cores = cfg.topology.cores_per_socket >= 1
                              ? cfg.topology.cores_per_socket
                              : (cfg.max_threads < 1 ? 1 : cfg.max_threads);
        per_shard = static_cast<std::size_t>(cores) *
                    static_cast<std::size_t>(
                        cfg.slots_per_thread < 1 ? 1 : cfg.slots_per_thread);
      }
      if (per_shard == 0)
        throw std::invalid_argument("ReaderTable: empty shard");
      shard_slots_ = per_shard;
      shard_stride_ =
          (per_shard + kSlotsPerLine - 1) / kSlotsPerLine * kSlotsPerLine;
      slots_ = aligned_vector<htm::Shared<std::uint64_t>>(
          static_cast<std::size_t>(shards_) * shard_stride_);
      // Summary lines per shard: one word per thread the shard can host
      // (local_index is a bijection socket-tid -> [0, span)), rounded to
      // whole lines. Typically one line — cores_per_socket <= 8 — so a
      // clean shard costs the drain exactly one load.
      const int mt = cfg.max_threads < 1 ? 1 : cfg.max_threads;
      std::size_t span = 1;
      for (int t = 0; t < mt; ++t) {
        const std::size_t li = local_index(t) + 1;
        if (li > span) span = li;
      }
      summary_stride_ =
          (span + kSlotsPerLine - 1) / kSlotsPerLine * kSlotsPerLine;
      summary_ = aligned_vector<htm::Shared<std::uint64_t>>(
          static_cast<std::size_t>(shards_) * summary_stride_);
      // Per-thread registration state: thread-private bookkeeping (each
      // entry is read/written only by its own thread), uncharged — the
      // depth turns nested registrations into at most one summary write
      // per outermost pair, and the published mirror + release counter
      // implement the amortized sticky clears.
      priv_.assign(static_cast<std::size_t>(mt), ThreadState{});
      return;
    }
    std::size_t n = cfg.slots;
    if (n == 0) {
      int cores = cfg.topology.sockets * cfg.topology.cores_per_socket;
      if (cores < cfg.max_threads) cores = cfg.max_threads;
      if (cores < 1) cores = 1;
      n = static_cast<std::size_t>(cores) *
          static_cast<std::size_t>(cfg.slots_per_thread < 1 ? 1 : cfg.slots_per_thread);
      n = (n + kSlotsPerLine - 1) / kSlotsPerLine * kSlotsPerLine;
    }
    if (n == 0) throw std::invalid_argument("ReaderTable needs >= 1 slot");
    shard_slots_ = n;
    shard_stride_ = n;
    slots_ = aligned_vector<htm::Shared<std::uint64_t>>(n);
  }

  ReaderTable() : ReaderTable(Config{}) {}
  virtual ~ReaderTable() = default;
  ReaderTable(const ReaderTable&) = delete;
  ReaderTable& operator=(const ReaderTable&) = delete;

  /// Hands out the next dense lock id. Locks register at construction;
  /// construction is a single-threaded phase (population / per-run setup),
  /// so ids — and with them slot hashes and virtual-time traces — are
  /// deterministic.
  std::uint32_t register_lock() noexcept {
    return next_lock_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// True when the table is socket-sharded (Config::shard_by_socket).
  bool sharded() const noexcept { return cfg_.shard_by_socket; }
  int shard_count() const noexcept { return shards_; }
  /// Logical slots per shard (= the whole table when not sharded).
  std::size_t shard_slots() const noexcept { return shard_slots_; }

  /// Shard the acquiring thread registers in — its socket's. Threads past
  /// the last socket wrap (Topology::socket_of), so oversubscription stays
  /// valid.
  int shard_of_tid(int tid) const noexcept {
    return cfg_.shard_by_socket ? cfg_.topology.socket_of(tid) % shards_ : 0;
  }

  /// Shard owning a slot index. release() uses this, NOT the releasing
  /// thread's current socket: a reader that migrated between occupy and
  /// release must decrement the summary of the shard it registered in.
  int shard_of_slot(std::size_t slot) const noexcept {
    return cfg_.shard_by_socket ? static_cast<int>(slot / shard_stride_) : 0;
  }

  std::size_t slot_of(std::uint32_t lock_id, int tid) const noexcept {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(lock_id) << 32) |
        static_cast<std::uint32_t>(tid);
    const std::uint64_t h = htm::detail::mix64(key);
    if (cfg_.shard_by_socket) {
      const int shard = shard_of_tid(tid);
      return static_cast<std::size_t>(shard) * shard_stride_ +
             static_cast<std::size_t>(h) % shard_slots_;
    }
    return static_cast<std::size_t>(h) % slots_.size();
  }

  /// Tag a lock's readers publish: ids are 0-based, 0 means "slot empty".
  static std::uint64_t tag_of(std::uint32_t lock_id) noexcept {
    return static_cast<std::uint64_t>(lock_id) + 1;
  }

  /// Fast-path publish: CAS the slot from empty to this lock's tag
  /// (strong isolation — bumps the slot line's version). False on
  /// collision: the caller must take the per-lock slow path. Sharded
  /// tables also raise the thread's summary word — BEFORE the caller's
  /// Dekker fence, which is what licenses the drain's clean-shard skip —
  /// unless the word is still sticky-raised from an earlier registration
  /// (the thread-private mirror knows; the steady state touches no
  /// summary line). `tid` is the acquiring thread; the global layout
  /// ignores it.
  bool occupy(std::size_t slot, std::uint32_t lock_id, int tid) {
    if (!slots_[slot].cas(0, tag_of(lock_id))) return false;
    if (cfg_.shard_by_socket) {
      ThreadState& st = priv_[static_cast<std::size_t>(tid)];
      ++st.depth;
      if (!st.published) {
        summary_word(shard_of_slot(slot), tid).store(1);
        st.published = true;
      }
    }
    return true;
  }

  /// Matching release (strong-isolation store). Slot first; then, on the
  /// thread's summary_clear_period-th outermost release, its summary
  /// word in the slot's shard (the registering shard, wherever the
  /// thread runs now) is cleared and the sticky publish re-armed. A
  /// summary therefore over-reports between clears — later drains scan
  /// the shard's slot lines, conservative never unsafe — and never reads
  /// clean while a registration of its shard is live.
  void release(std::size_t slot, int tid) {
    slots_[slot].store(0);
    if (cfg_.shard_by_socket) {
      ThreadState& st = priv_[static_cast<std::size_t>(tid)];
      if (st.depth > 0 && --st.depth == 0) {
        const std::uint32_t period =
            cfg_.summary_clear_period < 1
                ? 1
                : static_cast<std::uint32_t>(cfg_.summary_clear_period);
        if (++st.outermost_releases % period == 0) {
          summary_word(shard_of_slot(slot), tid).store(0);
          st.published = false;
        }
      }
    }
  }

  /// Revocation drain: wait until no slot holds `lock_id`'s tag. Reads one
  /// line at a time with a single load charge (line_or_plain) and spins
  /// per slot only on non-empty lines; a slot of a *different* lock costs
  /// one word compare, never a wait. Sharded tables are walked in socket
  /// order, and a shard whose summary reads 0 costs only its summary line
  /// reads — O(sockets) when remote shards are clean.
  ///
  /// Returns false once the absolute virtual `deadline` (~0 = none)
  /// passes; the caller must then re-arm the bias, not assume "no
  /// readers". `shard_cycles`, when non-null, receives the cycles spent in
  /// shard `sh` at shard_cycles[sh * shard_cycles_stride] (uint64 units),
  /// for the lock's per-shard re-bias throttle.
  virtual bool wait_for_readers_of(std::uint32_t lock_id,
                                   std::uint64_t deadline = ~std::uint64_t{0},
                                   std::uint64_t* shard_cycles = nullptr,
                                   std::size_t shard_cycles_stride = 1) {
    const std::uint64_t tag = tag_of(lock_id);
    if (!cfg_.shard_by_socket) {
      return drain_range(0, slots_.size(), tag, deadline);
    }
    for (int sh = 0; sh < shards_; ++sh) {
      std::uint64_t* cyc = shard_cycles == nullptr
                               ? nullptr
                               : shard_cycles + sh * shard_cycles_stride;
      if (!drain_shard(sh, tag, deadline, cyc)) return false;
    }
    return true;
  }

  /// Retracts a registration whose timed acquisition expired after the
  /// slot was published: the section never runs and the acquisition
  /// returns a timeout. Same effect as release().
  virtual void cancel(std::size_t slot, int tid) { release(slot, tid); }

  /// Raw view: true iff no slot holds any lock's tag (chaos tests assert
  /// this at quiesce — a slot leaked by an abandoned timed acquisition
  /// would wedge every later revocation drain). Summaries are NOT part of
  /// the invariant: sticky words legitimately stay raised between
  /// amortized clears, which only costs later drains a shard scan.
  bool all_slots_empty_raw() const noexcept {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].raw_load() != 0) return false;
    }
    return true;
  }

  /// Raw occupant of a slot (tests; 0 = empty).
  std::uint64_t occupant_raw(std::size_t slot) const noexcept {
    return slots_[slot].raw_load();
  }

  /// Raw occupancy summary of a shard: the number of raised (sticky)
  /// per-thread words — an upper bound on the threads registered there
  /// (tests; sharded tables only; exact with summary_clear_period = 1).
  std::uint64_t summary_raw(int shard) const noexcept {
    if (!cfg_.shard_by_socket) return 0;
    const std::size_t sb = static_cast<std::size_t>(shard) * summary_stride_;
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < summary_stride_; ++w)
      n += summary_[sb + w].raw_load();
    return n;
  }

  std::size_t slot_count() const noexcept { return slots_.size(); }
  std::uint32_t registered_locks() const noexcept {
    return next_lock_id_.load(std::memory_order_relaxed);
  }

  /// Total bytes of the table — the *shared* part of the per-lock footprint
  /// accounting (amortized over every registered lock).
  std::size_t footprint_bytes() const noexcept {
    return sizeof(*this) +
           slots_.capacity() * sizeof(htm::Shared<std::uint64_t>) +
           summary_.capacity() * sizeof(htm::Shared<std::uint64_t>) +
           priv_.capacity() * sizeof(ThreadState);
  }

  const Config& config() const noexcept { return cfg_; }

 protected:
  /// One shard of a sharded drain, its cycles to `*cyc` when non-null. The
  /// summary lines are ORed first; all-zero means no reader of ANY lock is
  /// registered there (the header comment says why a late one is safe).
  virtual bool drain_shard(int sh, std::uint64_t tag, std::uint64_t deadline,
                           std::uint64_t* cyc) {
    const std::uint64_t t0 = platform::now();
    const std::size_t sb = static_cast<std::size_t>(sh) * summary_stride_;
    std::uint64_t occupied = 0;
    for (std::size_t b = 0; b < summary_stride_ && occupied == 0;
         b += kSlotsPerLine) {
      const std::size_t count =
          std::min(kSlotsPerLine, summary_stride_ - b);
      occupied |= htm::line_or_plain(&summary_[sb + b], count);
    }
    const std::size_t base = static_cast<std::size_t>(sh) * shard_stride_;
    const bool drained =
        occupied == 0 || drain_range(base, base + shard_slots_, tag, deadline);
    if (cyc != nullptr) *cyc = platform::now() - t0;
    return drained;
  }

  /// Per-slot drain over [first, limit): line-OR summary per line, per-slot
  /// spin only where the line is non-empty. Shared by both layouts.
  bool drain_range(std::size_t first, std::size_t limit, std::uint64_t tag,
                   std::uint64_t deadline) {
    for (std::size_t base = first; base < limit; base += kSlotsPerLine) {
      const std::size_t count =
          limit - base < kSlotsPerLine ? limit - base : kSlotsPerLine;
      if (htm::line_or_plain(&slots_[base], count) == 0) continue;
      for (std::size_t s = base; s < base + count; ++s) {
        while (slots_[s].load() == tag) {
          if (deadline != ~std::uint64_t{0} && platform::now() >= deadline) {
            return false;
          }
          platform::pause();
        }
      }
    }
    return true;
  }

 private:
  /// Dense index of `tid` within its socket's summary block: with
  /// socket_of(t) = (t / cores_per_socket) % sockets, the socket-s tids
  /// are t = (m*sockets + s)*cps + j (j < cps), and m*cps + j enumerates
  /// them without gaps — so each resident thread owns exactly one summary
  /// word and no two threads ever store to the same one.
  std::size_t local_index(int tid) const noexcept {
    const int cps = cfg_.topology.cores_per_socket;
    if (shards_ <= 1 || cps < 1) return static_cast<std::size_t>(tid);
    return static_cast<std::size_t>(tid / (cps * shards_)) *
               static_cast<std::size_t>(cps) +
           static_cast<std::size_t>(tid % cps);
  }

  htm::Shared<std::uint64_t>& summary_word(int shard, int tid) noexcept {
    return summary_[static_cast<std::size_t>(shard) * summary_stride_ +
                    local_index(tid)];
  }

  Config cfg_;
  int shards_ = 1;
  std::size_t shard_slots_ = 0;   // logical slots per shard
  std::size_t shard_stride_ = 0;  // line-rounded slots_ indices per shard
  std::size_t summary_stride_ = 0;  // line-rounded summary words per shard
  aligned_vector<htm::Shared<std::uint64_t>> slots_;
  aligned_vector<htm::Shared<std::uint64_t>> summary_;  // sharded only
  // Per-thread registration state (sharded only): each entry touched only
  // by its own thread, so plain fields suffice; uncharged bookkeeping.
  struct ThreadState {
    std::uint32_t depth = 0;               // nested registrations live now
    std::uint32_t outermost_releases = 0;  // clears fire every period-th
    bool published = false;                // mirror of this thread's word
  };
  std::vector<ThreadState> priv_;
  std::atomic<std::uint32_t> next_lock_id_{0};
};

}  // namespace sprwl::bravo
