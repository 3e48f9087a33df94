// Chaos harness: seeded random fault scenarios with invariant checking.
//
// Runs a read/write workload over a small array of padded shared cells
// under any lock of the library, with a FaultPlan injected, and checks the
// three properties a correct lock must keep *under any schedule*:
//
//  * mutual exclusion / no lost updates — every committed write increments
//    all cells by one, so the final value must equal the number of
//    committed write sections;
//  * reader isolation — a reader observing two cells with different values
//    saw a torn update;
//  * progress — the run must finish before the virtual-time watchdog
//    (sim::SimConfig::max_virtual_time); a deadlock or livelock surfaces
//    deterministically as completed == false instead of a hung test.
//
// The harness is deliberately lock-agnostic (same shape as the lock-safety
// typed tests) so SpRWL, TLE and the pessimistic baselines run the exact
// same schedules — which is what lets the chaos bench show SpRWL readers
// riding out an interrupt storm that collapses TLE onto its fallback lock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/platform.h"
#include "common/rng.h"
#include "dist/lock_service.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/stats.h"
#include "sim/simulator.h"

namespace sprwl::fault {

/// Virtual cycles of the chaos workloads (this harness and the distributed
/// one below): work inside a read section, inside an update, and the
/// maximum private work between sections.
inline constexpr std::uint64_t kChaosReaderWork = 800;
inline constexpr std::uint64_t kChaosWriterWork = 300;
inline constexpr std::uint64_t kChaosBetweenOps = 400;

struct ChaosConfig {
  int threads = 8;
  /// The last `writers` thread ids update; the rest read. Keeping tid 0 a
  /// reader keeps SpRWL's sampler on the reader EMA, which the
  /// stalled-reader watchdog derives its threshold from.
  int writers = 2;
  int ops_per_thread = 150;
  std::uint64_t seed = 1;
  /// Progress watchdog: the whole scenario must finish within this much
  /// virtual time or the run is reported as not completed.
  std::uint64_t max_virtual_time = 4ULL * 1000 * 1000 * 1000;
};

struct ChaosResult {
  bool completed = false;          ///< progress watchdog verdict
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t torn_reads = 0;    ///< isolation violations observed
  std::uint64_t lost_updates = 0;  ///< committed writes missing from memory
  std::uint64_t final_value = 0;
  std::uint64_t final_time = 0;    ///< virtual time of the last fiber
  FaultStats faults;
  locks::LockStats lock_stats;
  htm::EngineStats engine_stats;

  bool invariants_ok() const noexcept {
    return completed && torn_reads == 0 && lost_updates == 0;
  }
};

/// Runs one chaos scenario. Deterministic given (cfg.seed, plan).
template <class Lock>
ChaosResult run_chaos(Lock& lock, htm::Engine& engine, const ChaosConfig& cfg,
                      const FaultPlan& plan) {
  struct alignas(64) Cell {
    htm::Shared<std::uint64_t> v;
  };
  constexpr std::size_t kCells = 4;
  std::vector<Cell> cells(kCells);
  std::vector<std::uint64_t> commits(static_cast<std::size_t>(cfg.threads), 0);
  std::vector<std::uint64_t> torn(static_cast<std::size_t>(cfg.threads), 0);
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(cfg.threads), 0);

  sim::SimConfig scfg;
  scfg.max_virtual_time = cfg.max_virtual_time;
  sim::Simulator sim(scfg);
  FaultInjector injector(plan, &sim, &engine);
  FaultScope fscope(injector);
  // Installed once around the whole run (not per fiber): fibers finish at
  // different virtual times, and a per-fiber scope would uninstall the
  // engine under the feet of the fibers still running.
  htm::EngineScope escope(engine);

  engine.reset_stats();
  lock.reset_stats();

  ChaosResult res;
  try {
    sim.run(cfg.threads, [&](int tid) {
      Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(tid));
      const auto me = static_cast<std::size_t>(tid);
      const bool is_writer = tid >= cfg.threads - cfg.writers;
      for (int i = 0; i < cfg.ops_per_thread; ++i) {
        if (is_writer) {
          lock.write(1, [&] {
            checkpoint(SchedKind::kWriteBody);
            const std::uint64_t v = cells[0].v.load() + 1;
            platform::advance(kChaosWriterWork);
            for (std::size_t c = 0; c < kCells; ++c) cells[c].v.store(v);
          });
          ++commits[me];  // outside the body: counted once per commit
        } else {
          // Assigned (not accumulated) inside the body so aborted HTM
          // attempts of the same section cannot double-count.
          std::uint64_t torn_here = 0;
          lock.read(0, [&] {
            torn_here = 0;
            checkpoint(SchedKind::kReadBody);
            const std::uint64_t a = cells[0].v.load();
            platform::advance(kChaosReaderWork);
            for (std::size_t c = 1; c < kCells; ++c) {
              if (cells[c].v.load() != a) ++torn_here;
            }
          });
          torn[me] += torn_here;
        }
        ++ops[me];
        platform::advance(1 + rng.next_below(kChaosBetweenOps));
      }
    });
    res.completed = true;
  } catch (const sim::SimTimeLimitError&) {
    res.completed = false;  // the progress watchdog converts hangs to data
  }

  for (int t = 0; t < cfg.threads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    res.torn_reads += torn[i];
    res.writes += commits[i];
    if (t < cfg.threads - cfg.writers) res.reads += ops[i];
  }
  res.final_value = cells[0].v.raw_load();
  for (std::size_t c = 1; c < kCells; ++c) {
    if (cells[c].v.raw_load() != res.final_value) ++res.torn_reads;
  }
  res.lost_updates =
      res.writes > res.final_value ? res.writes - res.final_value : 0;
  res.final_time = sim.final_time();
  res.faults = injector.stats();
  res.lock_stats = lock.stats();
  res.engine_stats = engine.stats();
  return res;
}

// ---------------------------------------------------------------------------
// Distributed-tier chaos: the same invariant carrier run over a dist::Shard
// across a multi-node topology, with node-scoped faults (crash-stop,
// partitions) in the plan. Adds two invariants the single-node harness has
// no use for:
//
//  * no stale reads — the payload is a monotonic counter, so a *validated*
//    read must never observe a smaller value than the same thread's
//    previous read (the anomaly a skipped version re-validation admits);
//  * crash consistency — fibers of a crashed node die at checkpoints
//    (NodeCrashed), their lease expires, and the next holder's recovery
//    must leave the payload consistent: the final cells must agree and
//    account for every acknowledged write.
// ---------------------------------------------------------------------------

struct DistChaosConfig {
  /// Multi-node shape (sim::Topology::split_nodes). Also the fiber count:
  /// threads are spread node-major over the nodes.
  sim::Topology topology = sim::Topology::split_nodes(8, 2);
  int threads = 8;
  int writers = 2;  ///< spread evenly over the thread ids (and so the nodes)
  int ops_per_thread = 120;
  std::uint64_t seed = 1;
  std::uint64_t max_virtual_time = 4ULL * 1000 * 1000 * 1000;
};

struct DistChaosResult {
  bool completed = false;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;          ///< acknowledged (returned-true) writes
  std::uint64_t torn_reads = 0;      ///< accepted copy with disagreeing cells
  std::uint64_t stale_reads = 0;     ///< accepted copy went backwards
  std::uint64_t read_failures = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t crashed_fibers = 0;  ///< fibers killed by a node crash
  std::uint64_t final_value = 0;
  std::uint64_t final_time = 0;
  FaultStats faults;
  std::uint64_t recoveries = 0;
  std::uint64_t write_abandons = 0;
  std::uint64_t read_escalations = 0;
  std::uint64_t node_transfers = 0;

  /// A crashed writer may have published its last write without living to
  /// acknowledge it, so final_value may exceed `writes` by at most the
  /// number of crashed fibers; it must never fall short (lost update).
  bool invariants_ok() const noexcept {
    return completed && torn_reads == 0 && stale_reads == 0 &&
           writes <= final_value &&
           final_value <= writes + crashed_fibers;
  }
};

/// Runs one distributed chaos scenario over a fresh shard.
/// Deterministic given (cfg.seed, plan).
inline DistChaosResult run_dist_chaos(dist::Shard& shard, htm::Engine& engine,
                                      const DistChaosConfig& cfg,
                                      const FaultPlan& plan) {
  const std::size_t cells = shard.config().cells;
  const auto n = static_cast<std::size_t>(cfg.threads);
  std::vector<std::uint64_t> commits(n, 0), torn(n, 0), stale(n, 0);
  std::vector<std::uint64_t> reads(n, 0), rfail(n, 0), wfail(n, 0);
  std::vector<std::uint64_t> died(n, 0);

  sim::SimConfig scfg;
  scfg.max_virtual_time = cfg.max_virtual_time;
  sim::Simulator sim(scfg);
  FaultInjector injector(plan, &sim, &engine);
  FaultScope fscope(injector);
  htm::EngineScope escope(engine);
  engine.reset_stats();

  DistChaosResult res;
  try {
    sim.run(cfg.threads, [&](int tid) {
      Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(tid));
      const auto me = static_cast<std::size_t>(tid);
      // Bresenham spread: exactly cfg.writers writer tids, spaced evenly
      // across the id range — and therefore across the nodes, so a node
      // crash can take a lease holder down and another node takes over.
      const bool is_writer =
          (static_cast<std::int64_t>(tid) * cfg.writers) % cfg.threads <
          cfg.writers;
      std::vector<std::uint64_t> buf(cells, 0);
      std::uint64_t last_seen = 0;
      try {
        for (int i = 0; i < cfg.ops_per_thread; ++i) {
          if (is_writer) {
            const bool ok = shard.write(tid, [&](std::uint64_t* vals,
                                                 std::size_t nc) {
              platform::advance(kChaosWriterWork);
              const std::uint64_t v = vals[0] + 1;
              for (std::size_t c = 0; c < nc; ++c) vals[c] = v;
            });
            if (ok) {
              ++commits[me];
            } else {
              ++wfail[me];
            }
          } else {
            if (shard.read(tid, buf.data())) {
              ++reads[me];
              for (std::size_t c = 1; c < cells; ++c) {
                if (buf[c] != buf[0]) {
                  ++torn[me];
                  break;
                }
              }
              if (buf[0] < last_seen) ++stale[me];
              if (buf[0] > last_seen) last_seen = buf[0];
            } else {
              ++rfail[me];
            }
          }
          platform::advance(1 + rng.next_below(kChaosBetweenOps));
        }
      } catch (const NodeCrashed&) {
        died[me] = 1;  // crash-stop: the fiber ends here, state untouched
      }
    });
    res.completed = true;
  } catch (const sim::SimTimeLimitError&) {
    res.completed = false;
  }

  for (std::size_t i = 0; i < n; ++i) {
    res.reads += reads[i];
    res.writes += commits[i];
    res.torn_reads += torn[i];
    res.stale_reads += stale[i];
    res.read_failures += rfail[i];
    res.write_failures += wfail[i];
    res.crashed_fibers += died[i];
  }
  res.final_value = shard.raw_cell(0);
  for (std::size_t c = 1; c < cells; ++c) {
    if (shard.raw_cell(c) != res.final_value) ++res.torn_reads;
  }
  // A payload left mid-publish by the very last crash is still "consistent
  // after recovery" — but nobody recovered it (the run ended). Exclude that
  // one case from the final-cells check by accepting an odd version only
  // when a crash happened.
  if ((shard.raw_version() & 1) != 0 && res.crashed_fibers == 0) {
    ++res.torn_reads;
  }
  res.final_time = sim.final_time();
  res.faults = injector.stats();
  const dist::ShardStats& ss = shard.stats();
  res.recoveries = ss.recoveries.load(std::memory_order_relaxed);
  res.write_abandons = ss.write_abandons.load(std::memory_order_relaxed);
  res.read_escalations = ss.read_escalations.load(std::memory_order_relaxed);
  res.node_transfers = engine.stats().node_transfers;
  return res;
}

// ---------------------------------------------------------------------------
// Torn-read oracle: *manufactures* split cross-node copies and asserts the
// version-validation loop rejects every torn observation. A reader fiber
// issues raw optimistic attempts whose payload copy stalls mid-way
// (Shard::read_once_split) while a writer on another node publishes
// continuously — so the copy's two halves deliberately straddle commits.
// Every attempt whose copied data disagrees across cells must have been
// rejected by the validation; one accepted torn copy is an oracle failure.
// With ShardConfig::broken_skip_read_validation the same harness must see
// accepted torn copies — the oracle validating itself.
// ---------------------------------------------------------------------------

/// Virtual cycles between the two halves of a stalled copy, and the
/// maximum pacing between the oracle's publishes and attempts.
inline constexpr std::uint64_t kOracleMidCopyStall = 6'000;
inline constexpr std::uint64_t kOracleWriterGap = 300;

struct TornOracleConfig {
  std::uint64_t seed = 1;
  int attempts = 400;  ///< split read attempts to issue
  std::uint64_t max_virtual_time = 4ULL * 1000 * 1000 * 1000;
};

struct TornOracleResult {
  bool completed = false;
  std::uint64_t attempts = 0;
  std::uint64_t splits = 0;         ///< attempts whose copied data was torn
  std::uint64_t accepted_torn = 0;  ///< torn copies the validation let through
  std::uint64_t accepted = 0;       ///< validated (accepted) attempts
  std::uint64_t stale_accepted = 0; ///< accepted copies that went backwards

  bool oracle_ok() const noexcept {
    return completed && splits > 0 && accepted_torn == 0 &&
           stale_accepted == 0;
  }
};

/// Runs the oracle over a fresh two-node shard: writer on node 1, split
/// reader on node 0. Deterministic given cfg.seed.
inline TornOracleResult run_torn_oracle(dist::Shard& shard,
                                        htm::Engine& engine,
                                        const TornOracleConfig& cfg) {
  const std::size_t cells = shard.config().cells;
  sim::SimConfig scfg;
  scfg.max_virtual_time = cfg.max_virtual_time;
  sim::Simulator sim(scfg);
  htm::EngineScope escope(engine);
  engine.reset_stats();

  TornOracleResult res;
  bool reader_done = false;  // fibers are cooperative: a plain flag suffices
  try {
    sim.run(2, [&](int tid) {
      Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
              static_cast<std::uint64_t>(tid));
      if (shard.config().topology.node_of(tid) != 0) {
        // Writer: publish monotonically until the reader finished.
        while (!reader_done) {
          shard.write(tid, [](std::uint64_t* vals, std::size_t nc) {
            const std::uint64_t v = vals[0] + 1;
            for (std::size_t c = 0; c < nc; ++c) vals[c] = v;
          });
          platform::advance(1 + rng.next_below(kOracleWriterGap));
        }
        return;
      }
      // Reader: raw split attempts, with every fourth attempt unstalled —
      // the oracle must also prove clean copies *pass* the validation, or
      // a reject-everything bug would score a perfect rejection rate.
      std::vector<std::uint64_t> buf(cells, 0);
      std::uint64_t last = 0;
      for (int a = 0; a < cfg.attempts; ++a) {
        const std::uint64_t stall = a % 4 == 3 ? 0 : kOracleMidCopyStall;
        const bool ok = shard.read_once_split(buf.data(), stall);
        ++res.attempts;
        bool is_torn = false;
        for (std::size_t c = 1; c < cells; ++c) {
          if (buf[c] != buf[0]) is_torn = true;
        }
        if (is_torn) ++res.splits;
        if (ok) {
          ++res.accepted;
          if (is_torn) ++res.accepted_torn;
          if (buf[0] < last) ++res.stale_accepted;
          if (buf[0] > last) last = buf[0];
        }
        platform::advance(1 + rng.next_below(kOracleWriterGap));
      }
      reader_done = true;
    });
    res.completed = true;
  } catch (const sim::SimTimeLimitError&) {
    res.completed = false;
  }
  return res;
}

}  // namespace sprwl::fault
