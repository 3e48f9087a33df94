// Index-traversal shadow: models the HTM footprint and conflict surface of
// B+-tree indices.
//
// The in-memory TPC-C port the paper benchmarks keeps its tables behind
// B+-trees; every row access walks root -> inner -> leaf, which is where
// most of a transaction's read footprint (and much of its conflict
// cross-section: hot inner nodes, shared leaf pages) comes from. Our tables
// are directly indexed for simplicity, so each logical index access walks a
// shadow tree instead: it reads (and, for inserts, writes) Shared cells
// laid out like tree nodes — one hot root line, a few inner lines, leaf
// cells packed 8 per line. The footprint per probe (~3 lines) and the
// false-sharing between neighbouring keys match what a real tree exhibits.
#pragma once

#include <cstdint>

#include "common/aligned.h"
#include "htm/line_set.h"
#include "htm/shared.h"

namespace sprwl::tpcc {

class IndexShadow {
 public:
  /// leaves/inners are cell counts; defaults model a two-level tree over a
  /// few hundred thousand keys.
  explicit IndexShadow(std::uint32_t leaves = 4096, std::uint32_t inners = 128)
      : inner_(inners), leaf_(leaves) {}

  /// Read-only lookup: walks root, one inner node, one leaf line.
  void probe(std::uint64_t key) const {
    (void)root_.load();
    (void)inner_[inner_slot(key)].load();
    (void)leaf_[leaf_slot(key)].load();
  }

  /// Insert/remove: lookup plus a leaf write (version bump on the leaf
  /// line — neighbouring keys conflict, like real leaf pages).
  void update(std::uint64_t key) {
    (void)root_.load();
    (void)inner_[inner_slot(key)].load();
    auto& cell = leaf_[leaf_slot(key)];
    cell.store(cell.load() + 1);
  }

 private:
  std::size_t inner_slot(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(htm::detail::mix64(key >> 8) % inner_.size());
  }
  std::size_t leaf_slot(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(htm::detail::mix64(key) % leaf_.size());
  }

  // On its own line, so the root's line geometry does not depend on where
  // the enclosing Database sits (stack offset, neighbouring objects).
  alignas(kCacheLineSize) htm::Shared<std::uint64_t> root_;
  // Unpadded on purpose: eight cells per line, like keys sharing a page.
  aligned_vector<htm::Shared<std::uint64_t>> inner_;
  mutable aligned_vector<htm::Shared<std::uint64_t>> leaf_;
};

}  // namespace sprwl::tpcc
