// Virtual-time cost model.
//
// When running under the sim::Simulator, every shared-memory access, fence
// and HTM event charges virtual cycles so that throughput and latency have
// the same *shape* they would on real hardware. The defaults approximate a
// ~2 GHz out-of-order core where shared accesses mostly miss to L2/LLC
// (30 cycles), fences drain the store buffer (~40), and HTM begin/commit
// cost roughly what Intel reports for RTM (tens of cycles each).
//
// EXPERIMENTS.md includes a sensitivity check: the qualitative results are
// stable under +/-2x changes of these values.
//
// The model is mutable global state on purpose: it is configured once by a
// harness before any worker starts and is read-only during a run.
#pragma once

#include <cstdint>

namespace sprwl {

struct CostModel {
  /// How line ownership is priced when the engine tracks owners.
  ///
  /// kMigratory (the default, and the only model before the home-directory
  /// mode existed): the last accessor owns the line, so every access from a
  /// different core pays the topology tier of a cache-to-cache transfer —
  /// including read-after-read, which makes read-sharing bounce lines and
  /// overstates cross-socket costs for reader-heavy workloads.
  ///
  /// kHomeDirectory: a line's home socket is its first toucher and the
  /// engine keeps a per-line sharer-socket mask. A read from a socket not
  /// yet in the mask charges one fetch-to-shared (remote_cross, or
  /// remote_node across nodes) and joins the mask; subsequent reads from
  /// that socket are free. A write charges one invalidation per *other*
  /// sharing socket and collapses the mask to the writer — so read-mostly
  /// sharing is cheap and the cost concentrates where the coherence traffic
  /// really is: writers (e.g. the BRAVO revocation drain) invalidating
  /// reader sockets.
  enum OwnershipModel { kMigratory = 0, kHomeDirectory = 1 };
  OwnershipModel ownership = kMigratory;

  std::uint64_t load = 8;        ///< one shared load (mostly-warm mix)
  std::uint64_t store = 10;      ///< one shared store
  std::uint64_t cas = 40;        ///< one read-modify-write
  std::uint64_t fence = 30;      ///< full memory fence
  std::uint64_t pause = 40;      ///< one spin-loop iteration
  std::uint64_t tx_begin = 60;   ///< HTM transaction begin
  std::uint64_t tx_commit = 80;  ///< HTM commit (success)
  std::uint64_t tx_abort = 120;  ///< HTM abort + rollback to begin
  /// Per written cache line, the cost of the commit's publish window: taking
  /// the line exclusive, draining the store and releasing the new version.
  /// Charged *while the line's versioned lock is held*, so in virtual time
  /// the publish of same-line writers serializes while disjoint-line
  /// writers overlap — the coherence behaviour the decentralized commit
  /// path is built around.
  std::uint64_t line_publish = 15;
  std::uint64_t local_work = 5;  ///< per private (non-shared) step of work
  /// Extra cycles a contended lock handoff costs *per waiting thread*:
  /// under a TATAS lock every release invalidates all spinners and the
  /// winner's RMW contends with the losers', so handoff latency grows
  /// linearly with the spinner count — the classic non-scalable-lock
  /// behaviour of pthread's internal mutex that the paper's flat RWL curve
  /// reflects.
  std::uint64_t contention_unit = 30;
  /// Topology-tiered coherence extras, charged *on top of* load/store/cas
  /// when the HTM engine tracks line owners (sim::Topology with >1 socket,
  /// or EngineConfig::track_line_owners): the accessing core pulls the line
  /// from the core that touched it last.
  ///
  /// remote_socket is the extra for a same-socket transfer (core-to-core
  /// through the shared LLC). It defaults to 0 because the flat 8-cycle
  /// load already prices the mostly-warm LLC mix — keeping the default
  /// model, and therefore every existing single-socket result, bit-exact.
  /// remote_cross is the extra for a cross-socket transfer (QPI/NUMA hop;
  /// ~100 extra cycles ≈ the 2-3x local-to-remote ratio Intel publishes
  /// for 2-socket Broadwell). It only ever applies when a topology with
  /// >= 2 sockets is configured, so it too is invisible by default.
  std::uint64_t remote_socket = 0;
  std::uint64_t remote_cross = 100;
  /// Extra for a cross-node transfer (sim::Topology with >= 2 nodes): a
  /// one-sided RDMA-class read pulling the line over the fabric. ~600 extra
  /// cycles ≈ 1.5-2 us round trips at 2 GHz amortized over warm NIC state,
  /// an order of magnitude past remote_cross — the gap the distributed
  /// tier's leases and version-validated read caching exist to hide. Only
  /// applies when a multi-node topology is configured, so it is invisible
  /// by default (single-node runs stay bit-exact).
  std::uint64_t remote_node = 600;
  double ghz = 2.0;  ///< virtual clock frequency, for tx/s
};

/// The process-wide cost model. Harnesses may overwrite it before starting
/// workers; defaults are always valid.
inline CostModel g_costs{};

}  // namespace sprwl
