// Queue-based fair reader-writer lock, after Mellor-Crummey & Scott
// (PPoPP'91) — the classic RWLock the paper cites ([31]) whose point is to
// avoid spinning on global variables: every thread spins on a flag in its
// own queue node, and the lock state is a tail pointer plus a reader count.
//
// This is the "fair" variant: requests are served in arrival order; a
// reader arriving behind a waiting writer blocks, and consecutive readers
// unblock each other in a cascade.
//
// Queue nodes live on the acquirer's stack: by the time start_* returns, a
// successor that obtained our node from the tail exchange has finished
// touching it (it stores our `next` last), and end_* waits for `next`
// whenever the tail CAS tells us a successor exists.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>

#include "common/costs.h"
#include "common/platform.h"
#include "locks/stats.h"

namespace sprwl::locks {

class McsRWLock {
 public:
  explicit McsRWLock(int max_threads) : modes_(max_threads) {}

  template <class F>
  void read(int /*cs_id*/, F&& f) {
    QNode node(kReader);
    start_read(node);
    platform::sched_point(SchedKind::kReadEnter, this);
    {
      ScopeExitRead release(*this, node);
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kReadExit, this);
    }
    modes_.record_read(CommitMode::kPessimistic);
  }

  template <class F>
  void write(int /*cs_id*/, F&& f) {
    QNode node(kWriter);
    start_write(node);
    platform::sched_point(SchedKind::kWriteEnter, this);
    {
      ScopeExitWrite release(*this, node);
      std::forward<F>(f)();
      platform::sched_point(SchedKind::kWriteExit, this);
    }
    modes_.record_write(CommitMode::kPessimistic);
  }

  LockStats stats() const { return modes_.snapshot(); }
  void reset_stats() { modes_.reset(); }
  static const char* name() noexcept { return "MCS-RW"; }

 private:
  enum Class : std::uint32_t { kReader = 0, kWriter = 1 };
  enum Succ : std::uint32_t { kNone = 0, kSuccReader = 1, kSuccWriter = 2 };

  // Node state packs (blocked, successor_class) into one word so the
  // reader-behind-reader hand-off can CAS both together, exactly as the
  // original algorithm requires.
  static constexpr std::uint32_t kBlockedBit = 4;
  static constexpr std::uint32_t pack(bool blocked, Succ s) noexcept {
    return (blocked ? kBlockedBit : 0) | s;
  }
  static constexpr bool blocked_of(std::uint32_t v) noexcept {
    return (v & kBlockedBit) != 0;
  }
  static constexpr Succ succ_of(std::uint32_t v) noexcept {
    return static_cast<Succ>(v & 3);
  }

  struct QNode {
    explicit QNode(Class c) : cls(c) {}
    const Class cls;
    std::atomic<QNode*> next{nullptr};
    std::atomic<std::uint32_t> state{pack(true, kNone)};
  };

  /// Clears only the blocked bit: a successor may be concurrently CASing
  /// its class into the same word, which must survive the unblock.
  static void unblock(QNode& n) {
    n.state.fetch_and(~kBlockedBit, std::memory_order_acq_rel);
  }

  void start_read(QNode& node) {
    platform::advance(g_costs.cas);
    QNode* pred = tail_.exchange(&node, std::memory_order_acq_rel);
    if (pred == nullptr) {
      reader_count_.fetch_add(1, std::memory_order_acq_rel);
      unblock(node);
    } else {
      std::uint32_t expected = pack(true, kNone);
      platform::advance(g_costs.cas);
      if (pred->cls == kWriter ||
          pred->state.compare_exchange_strong(expected,
                                              pack(true, kSuccReader),
                                              std::memory_order_acq_rel)) {
        // pred is a writer or a still-blocked reader: it will pass us the
        // baton. Publish ourselves, then wait.
        pred->next.store(&node, std::memory_order_release);
        while (blocked_of(node.state.load(std::memory_order_acquire))) {
          platform::pause();
        }
      } else {
        // pred is an active reader: join immediately.
        reader_count_.fetch_add(1, std::memory_order_acq_rel);
        pred->next.store(&node, std::memory_order_release);
        unblock(node);
      }
    }
    // Cascade: if a reader queued up behind us while we were blocked,
    // admit it now.
    if (succ_of(node.state.load(std::memory_order_acquire)) == kSuccReader) {
      QNode* next = nullptr;
      while ((next = node.next.load(std::memory_order_acquire)) == nullptr) {
        platform::pause();
      }
      reader_count_.fetch_add(1, std::memory_order_acq_rel);
      unblock(*next);
    }
  }

  void end_read(QNode& node) {
    platform::advance(g_costs.cas);
    QNode* expected = &node;
    if (node.next.load(std::memory_order_acquire) != nullptr ||
        !tail_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_acq_rel)) {
      QNode* next = nullptr;
      while ((next = node.next.load(std::memory_order_acquire)) == nullptr) {
        platform::pause();
      }
      if (succ_of(node.state.load(std::memory_order_acquire)) == kSuccWriter) {
        next_writer_.store(next, std::memory_order_release);
      }
    }
    platform::advance(g_costs.cas);
    // seq_cst, paired with start_write's empty-queue path: see there.
    if (reader_count_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      QNode* w = next_writer_.exchange(nullptr, std::memory_order_seq_cst);
      if (w != nullptr) unblock(*w);
    }
  }

  void start_write(QNode& node) {
    platform::advance(g_costs.cas);
    QNode* pred = tail_.exchange(&node, std::memory_order_acq_rel);
    if (pred == nullptr) {
      // Store-buffering handshake with the last reader's end_read: we store
      // next_writer_ then load reader_count_; it decrements reader_count_
      // then exchanges next_writer_. Under release/acquire both sides may
      // miss the other's write — we see a reader, it sees no writer — and
      // nobody ever unblocks us. seq_cst on all four accesses puts them in
      // one total order, so at least one side sees the other.
      next_writer_.store(&node, std::memory_order_seq_cst);
      platform::advance(g_costs.cas);
      if (reader_count_.load(std::memory_order_seq_cst) == 0 &&
          next_writer_.exchange(nullptr, std::memory_order_acq_rel) == &node) {
        unblock(node);
      }
    } else {
      // Mark pred's successor class before publishing next (pred's release
      // protocol reads them in the opposite order).
      std::uint32_t cur = pred->state.load(std::memory_order_acquire);
      while (!pred->state.compare_exchange_weak(
          cur, pack(blocked_of(cur), kSuccWriter), std::memory_order_acq_rel)) {
      }
      pred->next.store(&node, std::memory_order_release);
    }
    while (blocked_of(node.state.load(std::memory_order_acquire))) {
      platform::pause();
    }
  }

  void end_write(QNode& node) {
    platform::advance(g_costs.cas);
    QNode* expected = &node;
    if (node.next.load(std::memory_order_acquire) != nullptr ||
        !tail_.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_acq_rel)) {
      QNode* next = nullptr;
      while ((next = node.next.load(std::memory_order_acquire)) == nullptr) {
        platform::pause();
      }
      if (next->cls == kReader) {
        reader_count_.fetch_add(1, std::memory_order_acq_rel);
      }
      unblock(*next);
    }
  }

  class ScopeExitRead {
   public:
    ScopeExitRead(McsRWLock& l, QNode& n) : l_(l), n_(n) {}
    ~ScopeExitRead() { l_.end_read(n_); }

   private:
    McsRWLock& l_;
    QNode& n_;
  };
  class ScopeExitWrite {
   public:
    ScopeExitWrite(McsRWLock& l, QNode& n) : l_(l), n_(n) {}
    ~ScopeExitWrite() { l_.end_write(n_); }

   private:
    McsRWLock& l_;
    QNode& n_;
  };

  std::atomic<QNode*> tail_{nullptr};
  std::atomic<QNode*> next_writer_{nullptr};
  std::atomic<std::uint32_t> reader_count_{0};
  ModeRecorder modes_;
};

}  // namespace sprwl::locks
