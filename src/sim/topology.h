// Simulated machine topology: sockets × cores-per-socket.
//
// The virtual-time cost model charges a uniform price per shared access by
// default, which makes every core equidistant — a machine that has never
// existed. Real multi-socket parts pay a steep premium when a cache line's
// home moves across the interconnect (~3-10x an LLC hit on the paper's
// Broadwell and POWER8 boxes), and that asymmetry is exactly what NUMA-aware
// reader-indicator layouts (BRAVO-style sharding, socket-major reader flags)
// exist to exploit.
//
// Topology is the one struct the HTM engine, the locks and the fault and
// lease layers agree on: the engine maps a dense thread id to a socket to
// decide whether an access migrated a line across sockets (htm/engine.h,
// coherence_extra), and locks use it to shard their reader flags and
// reader tables per socket (core/tracker.h, core/bravo.h). It is a plain
// value type with no dependencies so every layer can include it.
//
// Thread ids map to cores in socket-major order: threads [0, C) are socket
// 0, [C, 2C) socket 1, and so on — matching how the benchmarks pin fibers.
// The default (1 socket) makes every pair of cores same-socket, which — with
// the default remote costs of zero — keeps single-socket runs bit-identical
// to the flat model.
//
// Above sockets sits an optional *node* level (nodes × sockets-per-node),
// modelling a cluster of machines joined by an RDMA-class fabric: a
// cross-node transfer prices a one-sided remote read (CostModel::remote_node,
// ≫ remote_cross) and — crucially — nodes share no cache coherence, so the
// distributed tier (src/dist/) layers versioned leases and version-validated
// one-sided reads on top instead of relying on the engine's strong
// isolation. Sockets map to nodes in node-major order (sockets [0, P) are
// node 0, [P, 2P) node 1, ...). The default (1 node) makes every core
// same-node, keeping all single-node runs bit-identical to before the node
// level existed.
#pragma once

namespace sprwl::sim {

struct Topology {
  /// Number of sockets (NUMA domains). 1 = flat machine, the default.
  int sockets = 1;
  /// Cores per socket. 0 = unbounded (every thread lands on socket 0 when
  /// sockets == 1; must be set when sockets > 1).
  int cores_per_socket = 0;
  /// Number of nodes (separate coherence domains). 1 = single machine,
  /// the default.
  int nodes = 1;
  /// Sockets per node. 0 = unbounded (every socket lands on node 0 when
  /// nodes == 1; must be set when nodes > 1).
  int sockets_per_node = 0;

  /// True when the topology cannot distinguish any two cores.
  bool flat() const noexcept { return sockets <= 1 && nodes <= 1; }

  /// True when every core shares one coherence domain (no node level).
  bool single_node() const noexcept { return nodes <= 1; }

  /// Socket owning dense thread/core id `core` (socket-major assignment).
  /// Ids past the last socket wrap, so oversubscribed runs stay valid.
  int socket_of(int core) const noexcept {
    if (sockets <= 1 || cores_per_socket <= 0 || core < 0) return 0;
    return (core / cores_per_socket) % sockets;
  }

  bool same_socket(int a, int b) const noexcept {
    return socket_of(a) == socket_of(b);
  }

  /// Node owning dense thread/core id `core` (node-major over sockets).
  int node_of(int core) const noexcept {
    if (single_node() || sockets_per_node <= 0) return 0;
    return (socket_of(core) / sockets_per_node) % nodes;
  }

  /// Node owning socket `socket` directly — the home-directory coherence
  /// model tracks sharers per *socket*, so pricing an invalidation needs the
  /// socket→node map without a representative core id.
  int node_of_socket(int socket) const noexcept {
    if (single_node() || sockets_per_node <= 0) return 0;
    return (socket / sockets_per_node) % nodes;
  }

  bool same_node(int a, int b) const noexcept {
    return node_of(a) == node_of(b);
  }

  /// Topology that spreads `threads` cores evenly over `sockets` sockets
  /// (last socket takes the remainder). The benchmark sweeps use this.
  static Topology split(int threads, int sockets) noexcept {
    Topology t;
    t.sockets = sockets < 1 ? 1 : sockets;
    t.cores_per_socket =
        t.sockets == 1 ? 0 : (threads + t.sockets - 1) / t.sockets;
    return t;
  }

  /// Topology that spreads `threads` cores over `nodes` nodes of
  /// `sockets_per_node` sockets each. The distributed-tier sweeps use this;
  /// nodes == 1 degenerates to split(threads, sockets_per_node).
  static Topology split_nodes(int threads, int nodes,
                              int sockets_per_node = 1) noexcept {
    if (sockets_per_node < 1) sockets_per_node = 1;
    if (nodes < 1) nodes = 1;
    Topology t = split(threads, nodes * sockets_per_node);
    if (nodes > 1) {
      t.nodes = nodes;
      t.sockets_per_node = sockets_per_node;
    }
    return t;
  }
};

}  // namespace sprwl::sim
