// Shared memory cells: the boundary between algorithm code and the HTM
// emulator.
//
// On real hardware, any load/store inside a transaction is transactional
// and any access outside is plain — the instruction stream is identical.
// Under emulation, data shared between transactional writers and
// uninstrumented readers lives in Shared<T> cells that perform the same
// dispatch: inside a transaction the access goes through the engine
// (redo log / read-set), outside it is a plain atomic access. The only cost
// an "uninstrumented" reader pays is a thread-local in-transaction check —
// there is no per-access synchronization, which is the whole point of
// SpRWL's uninstrumented readers.
//
// store()/cas() outside a transaction are strong-isolation accesses: a
// lock-free publish cycle on the owning line's versioned lock that bumps
// the line version — invalidating the line in live transactions' read sets
// — and drains any commit already past validation (what cache coherence
// does on real HTM). Stores to different lines never serialize with each
// other or with disjoint commits. That is exactly the behaviour SpRWL's
// safety argument needs for the reader state flags and the SGL word, and
// it is also what makes SGL-fallback writers' plain stores abort
// conflicting transactions.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/costs.h"
#include "common/platform.h"
#include "htm/engine.h"

namespace sprwl::htm {

template <class T>
class Shared;

std::uint64_t line_or(const Shared<std::uint64_t>* first, std::size_t n);

template <class T>
class Shared {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "Shared<T> requires a trivially copyable T of at most 8 bytes");

 public:
  Shared() = default;
  explicit Shared(T v) noexcept { cell_.store(encode(v), std::memory_order_relaxed); }

  /// Transaction-aware load. Plain (uninstrumented) outside a transaction —
  /// with owner tracking on, the plain path still reports the access so the
  /// line's topology-tiered transfer cost (and ownership migration) is
  /// charged; without tracking (the default) the extra branch is one
  /// predictable flag test.
  T load() const {
    prefetch();
    Engine* e = Engine::current();
    if (e != nullptr) {
      if (e->in_tx()) return decode(e->tx_read(cell_));
      // MVCC snapshot sections (core::SpRWLock::read_snapshot) route every
      // load through the version lookup; threads outside a snapshot — and
      // every thread of an engine without retained versions — pay one flag
      // test. Throws SnapshotMiss when the pinned version left the ring.
      if (e->in_snapshot()) return decode(e->snapshot_read(cell_));
      if (e->tracks_owners()) e->plain_access(&cell_);
    }
    platform::advance(g_costs.load);
    return decode(cell_.load(std::memory_order_acquire));
  }

  /// Transaction-aware store. Outside a transaction this is a
  /// strong-isolation store (serialized with commits).
  void store(T v) {
    prefetch();
    Engine* e = Engine::current();
    if (e != nullptr) {
      if (e->in_tx()) {
        e->tx_write(cell_, encode(v));
      } else {
        e->nontx_store(cell_, encode(v));
      }
      return;
    }
    platform::advance(g_costs.store);
    cell_.store(encode(v), std::memory_order_release);
  }

  /// Transaction-aware compare-and-swap (used by SNZI). Inside a
  /// transaction this is simply a read-check-write on the redo log; outside
  /// it is a strong-isolation CAS.
  bool cas(T expected, T desired) {
    prefetch();
    Engine* e = Engine::current();
    if (e != nullptr) {
      if (e->in_tx()) {
        if (decode(e->tx_read(cell_)) != expected) return false;
        e->tx_write(cell_, encode(desired));
        return true;
      }
      return e->nontx_cas(cell_, encode(expected), encode(desired));
    }
    platform::advance(g_costs.cas);
    std::uint64_t exp = encode(expected);
    return cell_.compare_exchange_strong(exp, encode(desired),
                                         std::memory_order_acq_rel);
  }

  /// Raw accessors for single-threaded phases (population, verification).
  /// They bypass the engine and charge no virtual time.
  T raw_load() const noexcept { return decode(cell_.load(std::memory_order_relaxed)); }
  void raw_store(T v) noexcept { cell_.store(encode(v), std::memory_order_relaxed); }

 private:
  friend std::uint64_t line_or(const Shared<std::uint64_t>* first,
                               std::size_t n);

  // Every access path charges its cost before it touches the cell, and
  // under the simulator the charge usually switches fibers: the cell is
  // read when this fiber resumes, after the others ran. Requesting it first
  // lets the miss overlap the switch. Never changes what is read.
  void prefetch() const noexcept { __builtin_prefetch(&cell_); }

  static std::uint64_t encode(T v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
  }
  static T decode(std::uint64_t bits) noexcept {
    T v;
    std::memcpy(&v, &bits, sizeof(T));
    return v;
  }

  mutable std::atomic<std::uint64_t> cell_{0};
};

/// Fixed-capacity string stored as shared 8-byte words (TPC-C rows carry
/// CHAR/VARCHAR fields that update transactions overwrite).
template <std::size_t N>
class SharedString {
  static constexpr std::size_t kWords = (N + 7) / 8;

 public:
  void assign(std::string_view s) {
    std::size_t n = s.size() < N ? s.size() : N;
    size_.store(static_cast<std::uint32_t>(n));
    for (std::size_t w = 0; w * 8 < n; ++w) {
      std::uint64_t bits = 0;
      const std::size_t chunk = (n - w * 8 < 8) ? n - w * 8 : 8;
      std::memcpy(&bits, s.data() + w * 8, chunk);
      words_[w].store(bits);
    }
  }

  std::string str() const {
    const std::size_t n = size_.load();
    std::string out(n, '\0');
    for (std::size_t w = 0; w * 8 < n; ++w) {
      const std::uint64_t bits = words_[w].load();
      const std::size_t chunk = (n - w * 8 < 8) ? n - w * 8 : 8;
      std::memcpy(out.data() + w * 8, &bits, chunk);
    }
    return out;
  }

  /// Population-time assign: raw stores, no engine involvement.
  void raw_assign(std::string_view s) noexcept {
    std::size_t n = s.size() < N ? s.size() : N;
    size_.raw_store(static_cast<std::uint32_t>(n));
    for (std::size_t w = 0; w * 8 < n; ++w) {
      std::uint64_t bits = 0;
      const std::size_t chunk = (n - w * 8 < 8) ? n - w * 8 : 8;
      std::memcpy(&bits, s.data() + w * 8, chunk);
      words_[w].raw_store(bits);
    }
  }

  static constexpr std::size_t capacity() noexcept { return N; }

 private:
  Shared<std::uint32_t> size_;
  Shared<std::uint64_t> words_[kWords];
};

/// OR-summary of `n` consecutive Shared<uint64_t> cells that share one
/// 64-byte cache line (n <= 8; e.g. a 64-byte-aligned aligned_vector of
/// per-thread state words), for one load charge. Dispatches like
/// Shared<T>::load, without its snapshot routing:
///  * inside a transaction it is one read-set entry (tx_read_line_or):
///    SpRWL's batched commit-time reader scan reads a whole line of flags
///    per step instead of one word;
///  * outside one it is a plain read that creates no read-set entry: the
///    BRAVO revocation drain skips empty reader-table lines with it. A
///    reader arriving after the scan is caught by the writer's
///    in-transaction bias subscription, not by this read (DESIGN.md §12).
/// Shared<uint64_t> is exactly its 8-byte cell, so consecutive elements map
/// to consecutive words of the line.
inline std::uint64_t line_or(const Shared<std::uint64_t>* first,
                             std::size_t n) {
  static_assert(sizeof(Shared<std::uint64_t>) == sizeof(std::uint64_t),
                "Shared<uint64_t> must be exactly its cell");
  first->prefetch();
  Engine* e = Engine::current();
  if (e != nullptr) {
    if (e->in_tx()) return e->tx_read_line_or(&first->cell_, n);
    if (e->tracks_owners()) e->plain_access(&first->cell_);
  }
  platform::advance(g_costs.load);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= first[i].cell_.load(std::memory_order_acquire);
  }
  return acc;
}

/// Full memory fence, charged to virtual time. The paper's readers issue
/// one after publishing their state flag and one before clearing it.
inline void memory_fence() {
  platform::advance(g_costs.fence);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

}  // namespace sprwl::htm
