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

/// The scheduling variants of Fig. 5's ablation, in order: each adds one
/// mechanism to the one before it.
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
  /// Which of Fig. 5's cumulative scheduling mechanisms run; read them
  /// through reader_sync(), reader_join() and writer_sync().
  SchedulingVariant scheduling = SchedulingVariant::kFull;
  bool reader_htm_first = true;
  Tracking tracking = Tracking::kFlags;
  bool versioned_sgl = false;
  /// δ as a fraction of the writer's expected duration (paper default 1/2),
  /// in [0, 1].
  double delta_fraction = 0.5;
  /// SNZI tree depth in [0, snzi::Snzi::kMaxLevels]; 0 = auto-size so there
  /// are roughly max_threads/2 leaves (bounded contention per leaf,
  /// logarithmic update cost).
  int snzi_levels = 0;
  /// Topology-aware flag tracking (DESIGN.md §11): state slots go
  /// socket-major with per-socket line padding, and readers also keep one
  /// count per socket, which is all the commit scan reads (S lines instead
  /// of ceil(T/8)). Only Tracking::kFlags shards; the SNZI trackers reject
  /// it at construction.
  bool socket_sharded_tracking = false;
  /// The machine shape the sharding follows (socket-major dense tids, as
  /// sim::Topology maps them); one socket degenerates to a single shard.
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

  /// Alg. 2: readers wait for the active writer expected to finish last.
  bool reader_sync() const noexcept {
    return scheduling >= SchedulingVariant::kRWait;
  }
  /// Alg. 2: readers also join already-waiting readers.
  bool reader_join() const noexcept {
    return scheduling >= SchedulingVariant::kRSync;
  }
  /// Alg. 3: a writer aborted by a reader times its retry.
  bool writer_sync() const noexcept {
    return scheduling == SchedulingVariant::kFull;
  }

  static Config variant(SchedulingVariant v, int max_threads) {
    Config c;
    c.max_threads = max_threads;
    c.scheduling = v;
    return c;
  }
};

}  // namespace sprwl::core
