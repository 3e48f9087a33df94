// SpRWLock configuration with the paper's defaults. A Config the lock cannot
// honour is rejected at construction (std::invalid_argument), never
// silently rewritten. Values no workload varies are constants of the class
// that reads them (SpRWLock, BiasFront, AdaptiveTracker).
#pragma once

#include <cstdint>
#include <memory>

#include "core/bravo.h"
#include "sim/topology.h"

namespace sprwl::core {

/// Named scheduling configurations matching the ablation of Fig. 5.
enum class SchedulingVariant {
  kNoSched,  ///< base algorithm only (Section 3.1)
  kRWait,    ///< readers wait for the last active writer
  kRSync,    ///< RWait + readers join already-waiting readers
  kFull,     ///< RSync + writer synchronization (the default SpRWL)
};

/// How slow-path readers register (core/tracker.h, DESIGN.md §11).
enum class Tracking {
  kFlags,     ///< the paper's per-thread state[] flags
  kSnzi,      ///< SNZI (§3.4): writers check one root word
  kAdaptive,  ///< flags or SNZI by sampled reader duration (§5 future work)
};

struct Config {
  int max_threads = 64;
  /// HTM attempts for writers before the SGL fallback (capacity aborts
  /// activate the fallback immediately, as in the paper's retry policy).
  int max_retries = 10;
  bool reader_sync = true;
  bool reader_join = true;
  bool writer_sync = true;
  bool reader_htm_first = true;
  Tracking tracking = Tracking::kFlags;
  bool versioned_sgl = false;
  /// Commit-time scan granularity of flat flags: one OR-summary read per
  /// line of 8 flags, ceil(T/8) line reads instead of T word reads.
  /// Conflict detection is line-granular either way; false restores the
  /// per-word scan (the ablation baseline in bench/ablation_cost_model).
  bool batched_reader_scan = true;
  /// δ as a fraction of the writer's expected duration (paper default 1/2).
  double delta_fraction = 0.5;
  /// SNZI tree depth; 0 = auto-size so there are roughly max_threads/2
  /// leaves (bounded contention per leaf, logarithmic update cost).
  int snzi_levels = 0;
  /// Topology-aware tracking (DESIGN.md §11): state slots go socket-major
  /// with per-socket line padding, and flag readers also keep one count per
  /// socket, which is all the commit scan reads (S lines instead of
  /// ceil(T/8)). SNZI trees go socket-major instead.
  bool socket_sharded_tracking = false;
  /// The machine shape the sharding follows (socket-major dense tids, like
  /// sim::SimConfig::topology); one socket degenerates to a single shard.
  sim::Topology topology{};

  // --- BRAVO global reader bias (DESIGN.md §12) ---------------------------
  /// Route readers through the shared bravo_table while this lock's bias is
  /// on (core/bias.h): a reader CASes its hashed slot there and never
  /// touches the per-lock plane; writers revoke the bias first. Requires
  /// bravo_table.
  bool bravo_bias = false;
  /// The shared visible-readers table. One table serves every lock of the
  /// workload; locks register for a dense id at construction.
  std::shared_ptr<bravo::ReaderTable> bravo_table;

  // --- MVCC snapshot readers (DESIGN.md §14) ------------------------------
  /// read_snapshot() pins the engine's version clock and registers nothing
  /// a writer could wait on (SpRWLock::read_snapshot). Needs an engine with
  /// EngineConfig::retain_versions > 0; otherwise, or with this off,
  /// read_snapshot() is a plain read().
  bool snapshot_readers = false;

  static Config variant(SchedulingVariant v, int max_threads) {
    Config c;
    c.max_threads = max_threads;
    switch (v) {
      case SchedulingVariant::kNoSched:
        c.reader_sync = c.reader_join = c.writer_sync = false;
        break;
      case SchedulingVariant::kRWait:
        c.reader_join = c.writer_sync = false;
        break;
      case SchedulingVariant::kRSync:
        c.writer_sync = false;
        break;
      case SchedulingVariant::kFull:
        break;
    }
    return c;
  }
};

}  // namespace sprwl::core
