// The million-lock scale-out workload (ROADMAP: lock-table scale-out;
// DESIGN.md §12): a key-value table where EVERY key has its own SpRWL
// instance — the regime databases and runtimes actually run read-write
// locks in (per-row latches, per-bucket locks, B+-tree leaf latches), and
// the regime the paper's single-lock benchmarks never touch.
//
// Two things dominate here and both are properties of the *lock*, not the
// protected data:
//
//  * footprint — O(threads) words per lock is fatal at 10^6 locks. The
//    table exists to measure bytes/lock for the lazily-planed, BRAVO-biased
//    SpRWLock against the eager flat baseline;
//  * skew — popularity is zipfian (Gray et al.'s generator, the YCSB
//    distribution). Hot keys see real reader/writer traffic and exercise
//    bias revocation; the cold tail (the overwhelming majority) must cost
//    nothing but its shell.
//
// Data layout is B+-tree-leaf striped: values live in 64-byte leaf lines of
// kKeysPerLeaf keys × 2 words each, so neighbouring keys share a cache line
// exactly as leaf entries do — a reader's optional leaf scan touches the
// whole line while its lock only covers one key (realistic false sharing
// across lock instances). Each key's two words maintain the invariant
// w1 == w0 ^ kTag; writers bump the pair through their key's lock and a
// torn read (a writer committing over a live reader) is detected by the
// reader as an invariant violation — the workload doubles as a whole-stack
// correctness check.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>

#include "common/aligned.h"
#include "common/rng.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "sim/simulator.h"
#include "workloads/closed_loop.h"

namespace sprwl::workloads {

/// Zipfian rank generator after Gray et al. (SIGMOD'94), the YCSB
/// formulation: next() returns a rank in [0, n) where rank 0 is the most
/// popular. The O(n) zeta precomputation runs once at construction; next()
/// is constant-time. Deterministic given the caller's Rng. theta must lie
/// in [0, 1): at 1 the exponent 1 / (1 - theta) is infinite and next()
/// returns only ranks 0, 1 and n - 1.
class Zipfian {
 public:
  explicit Zipfian(std::uint64_t n, double theta = 0.99)
      : n_(n), theta_(theta) {
    if (n < 2) throw std::invalid_argument("Zipfian needs n >= 2");
    if (!(theta >= 0.0 && theta < 1.0)) {  // NaN fails both comparisons
      throw std::invalid_argument("Zipfian needs theta in [0, 1)");
    }
    double zn = 0.0;
    double z2 = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zn += 1.0 / std::pow(static_cast<double>(i), theta);
      if (i == 2) z2 = zn;
    }
    zetan_ = zn;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - z2 / zn);
  }

  std::uint64_t next(Rng& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

  std::uint64_t n() const noexcept { return n_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

class LockTable {
 public:
  /// Keys sharing one 64-byte leaf line (2 words per key, 8 words per line).
  static constexpr std::uint64_t kKeysPerLeaf = 4;

  struct Config {
    /// Number of keys = number of locks. Must be a power of two >= 4 (the
    /// zipfian rank-to-key scramble below is only bijective on a
    /// power-of-two ring, and a leaf holds 4 keys).
    std::uint64_t keys = std::uint64_t{1} << 16;
    /// Per-key lock configuration: the table keeps one copy, which every
    /// lock shares. For the bravo variants, lock.bravo_table is shared by
    /// all of them (per-key dense ids are registered here, in key order,
    /// single-threaded — so slot hashes and virtual-time traces are
    /// reproducible).
    core::Config lock;
  };

  explicit LockTable(Config cfg) : cfg_(cfg), words_(check_keys(cfg.keys) * 2) {
    const auto lock_cfg = std::make_shared<const core::Config>(cfg_.lock);
    for (std::uint64_t k = 0; k < cfg_.keys; ++k) {
      words_[word0_of(k)].raw_store(0);
      words_[word0_of(k) + 1].raw_store(kTag);
      locks_.emplace_back(lock_cfg);
    }
  }

  std::uint64_t keys() const noexcept { return cfg_.keys; }
  core::SpRWLock& lock_of(std::uint64_t key) { return locks_[key]; }

  /// Zipfian ranks are ordered by popularity, which without scrambling
  /// would make keys 0..k the hot set — consecutive, same-leaf, same
  /// cache lines, an accidental best case. The odd-multiplier scramble is
  /// a bijection on the power-of-two key ring (odd numbers are invertible
  /// mod 2^k), spreading the hot set across leaves the way real key
  /// popularity spreads across a B+-tree.
  std::uint64_t key_of_rank(std::uint64_t rank) const noexcept {
    return (rank * 0x9E3779B97F4A7C15ULL) & (cfg_.keys - 1);
  }

  /// Read operation; call inside lock_of(key)'s READ critical section.
  /// Returns false on an invariant violation — a torn read, which no
  /// correct lock ever exposes. leaf_scan additionally reads the rest of
  /// the key's leaf line (the B+-tree "scan the leaf you landed on"
  /// pattern); those words belong to OTHER keys under other locks, so
  /// only the traffic matters, never their invariant.
  bool verify_key(std::uint64_t key, bool leaf_scan = true) const {
    const std::uint64_t w0 = word0_of(key);
    const std::uint64_t a = words_[w0].load();
    const std::uint64_t b = words_[w0 + 1].load();
    if (leaf_scan) {
      const std::uint64_t base = w0 & ~std::uint64_t{7};  // leaf line start
      std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < 2 * kKeysPerLeaf; ++i) {
        if (base + i == w0 || base + i == w0 + 1) continue;
        sink ^= words_[base + i].load();
      }
      sink_.raw_store(sink);  // keep the loads observable
    }
    return b == (a ^ kTag);
  }

  /// Write operation; call inside lock_of(key)'s WRITE critical section.
  void bump_key(std::uint64_t key) {
    const std::uint64_t w0 = word0_of(key);
    const std::uint64_t v = words_[w0].load() + 1;
    words_[w0].store(v);
    words_[w0 + 1].store(v ^ kTag);
  }

  /// Quiescent-state check (no virtual-time charge): every key's pair
  /// intact. Used by tests after a run.
  bool raw_all_intact() const {
    for (std::uint64_t k = 0; k < cfg_.keys; ++k) {
      const std::uint64_t w0 = word0_of(k);
      if (words_[w0 + 1].raw_load() != (words_[w0].raw_load() ^ kTag)) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t raw_version_of(std::uint64_t key) const {
    return words_[word0_of(key)].raw_load();
  }

  void reset_stats() {
    for (auto& l : locks_) l.reset_stats();
  }

  /// Whole-table accounting, summed over every lock. The scan is uncharged
  /// bookkeeping; with the lazy plane it is cheap even at 10^6 locks
  /// because cold locks answer from their shell.
  struct Totals {
    std::uint64_t locks = 0;
    std::uint64_t locks_with_plane = 0;
    /// Per-lock bytes: shells plus every allocated plane. The shared bravo
    /// table is reported separately (it amortizes across all locks).
    std::size_t lock_bytes = 0;
    std::size_t shared_table_bytes = 0;
    std::uint64_t bias_reads = 0;
    std::uint64_t revocations = 0;
    std::uint64_t revoke_cycles = 0;
    std::uint64_t rebias = 0;

    double bytes_per_lock() const noexcept {
      if (locks == 0) return 0.0;
      return static_cast<double>(lock_bytes + shared_table_bytes) /
             static_cast<double>(locks);
    }
    /// Mean virtual cycles one bias revocation (table drain) cost writers.
    double revocation_latency() const noexcept {
      if (revocations == 0) return 0.0;
      return static_cast<double>(revoke_cycles) /
             static_cast<double>(revocations);
    }
  };

  Totals totals() const {
    Totals t;
    t.locks = cfg_.keys;
    for (const auto& l : locks_) {
      if (l.has_plane()) ++t.locks_with_plane;
      t.lock_bytes += l.footprint_bytes();
      t.bias_reads += l.bias_read_count();
      t.revocations += l.revocation_count();
      t.revoke_cycles += l.revocation_cycles();
      t.rebias += l.rebias_count();
    }
    if (cfg_.lock.bravo_table != nullptr) {
      t.shared_table_bytes = cfg_.lock.bravo_table->footprint_bytes();
    }
    return t;
  }

  /// Commit-mode/abort breakdown aggregated over every lock.
  locks::LockStats stats() const {
    locks::LockStats s;
    for (const auto& l : locks_) {
      const locks::LockStats one = l.stats();
      s.reads += one.reads;
      s.writes += one.writes;
      s.aborts += one.aborts;
      s.escalations += one.escalations;
    }
    return s;
  }

  std::uint64_t reader_abort_count() const {
    std::uint64_t n = 0;
    for (const auto& l : locks_) n += l.reader_abort_count();
    return n;
  }

  const Config& config() const noexcept { return cfg_; }

 private:
  static constexpr std::uint64_t kTag = 0x5eedc0de5eedc0deULL;

  static std::uint64_t check_keys(std::uint64_t keys) {
    if (keys < kKeysPerLeaf || (keys & (keys - 1)) != 0) {
      throw std::invalid_argument(
          "LockTable: keys must be a power of two >= 4");
    }
    return keys;
  }

  /// Leaf-striped word index of key k's first word: leaf line k/4, slot
  /// (k%4)*2 within the line. aligned_vector is 64-byte aligned, so word
  /// indices [8i, 8i+8) are one cache line — one leaf.
  static std::uint64_t word0_of(std::uint64_t k) noexcept {
    return (k / kKeysPerLeaf) * 8 + (k % kKeysPerLeaf) * 2;
  }

  Config cfg_;
  aligned_vector<htm::Shared<std::uint64_t>> words_;
  /// deque: SpRWLock is neither copyable nor movable, and a deque grows
  /// without relocating elements.
  std::deque<core::SpRWLock> locks_;
  /// Leaf-scan sink so the extra loads cannot be optimized away; raw-stored
  /// (uncharged — the loads are the modelled work, the sink is bookkeeping).
  mutable htm::Shared<std::uint64_t> sink_;
};

struct LockTableDriverConfig {
  int threads = 4;
  double update_ratio = 0.01;
  bool leaf_scan = true;
  std::uint64_t warmup_cycles = 200'000;
  std::uint64_t measure_cycles = 2'000'000;
  std::uint64_t seed = 1;
};

struct LockTableRunResult : RunResult {
  /// Reads whose invariant check failed — torn reads, warmup included.
  /// Always 0 for a correct lock; the broken checker variants exist to make
  /// it nonzero.
  std::uint64_t invariant_failures = 0;
  LockTable::Totals totals;
};

/// Runs the zipfian (theta 0.99) per-key-lock workload for
/// cfg.measure_cycles of virtual time after a warmup. Deterministic given
/// cfg.seed. Each operation draws a zipfian rank, scrambles it to a key, and
/// takes THAT key's lock — reads (section 0) verify the key's invariant pair
/// (plus the optional leaf scan), writes (section 1) bump it.
inline LockTableRunResult run_lock_table(sim::Simulator& sim,
                                         htm::Engine& engine, LockTable& table,
                                         const LockTableDriverConfig& cfg) {
  const Zipfian zipf(table.keys());
  std::uint64_t torn = 0;  // every fiber runs on this OS thread
  const auto make_op = [&](int tid) {
    return [&, rng = Rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<std::uint64_t>(tid))]() mutable {
      const std::uint64_t key = table.key_of_rank(zipf.next(rng));
      core::SpRWLock& lock = table.lock_of(key);
      if (rng.next_bool(cfg.update_ratio)) {
        lock.write(1, [&] { table.bump_key(key); });
        return Section{1, true};
      }
      bool ok = true;
      lock.read(0, [&] { ok = table.verify_key(key, cfg.leaf_scan); });
      if (!ok) ++torn;
      return Section{0, false};
    };
  };
  return {run_closed_loop(sim, engine, table, cfg, make_op), torn,
          table.totals()};
}

}  // namespace sprwl::workloads
