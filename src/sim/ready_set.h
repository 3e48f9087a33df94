// Ready set of the virtual-time scheduler (sim::Simulator).
//
// Holds one packed (time, id) key per runnable fiber and hands out the
// smallest. Keys are unique (ids are), so the order — and with it the whole
// schedule — is fully determined by the keys; any correct ordered set
// yields the same schedule, and this one is chosen for the access pattern
// the scheduler actually produces:
//
//  * a fiber yields only once its clock has passed the minimum, and spin
//    loops advance every fiber by similar small amounts, so the yielding
//    fiber almost always re-enters at or near the *back* of the order;
//  * the key it replaces is always the front.
//
// So the set is a sorted run of keys in a buffer of 2 * capacity slots: the
// minimum sits at the head (pop = bump the head), and an insert walks from
// the tail toward the head, shifting each larger key one slot back. Landing
// at the back costs one compare; landing k places from the back costs k
// shifts of 8-byte keys that sit in the same few cache lines. When the run
// reaches the end of the buffer it is moved back to the front: at most once
// per `capacity` inserts, so one key move per insert amortized, and the
// walk itself never wraps (a wrapping ring measured ~40% slower per insert).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sprwl::sim {

class ReadySet {
 public:
  // A key packs (time << kIdBits) | id, so the scheduling order (time, then
  // id) is a single integer compare. Capacity bounds, enforced by
  // Simulator::run(): at most 2^kIdBits fibers, virtual times below
  // 2^(64 - kIdBits).
  static constexpr int kIdBits = 10;
  static std::uint64_t key(std::uint64_t time, int id) noexcept {
    return (time << kIdBits) | static_cast<std::uint64_t>(id);
  }
  static std::uint64_t time_of(std::uint64_t key) noexcept {
    return key >> kIdBits;
  }
  static int id_of(std::uint64_t key) noexcept {
    return static_cast<int>(key & ((1u << kIdBits) - 1));
  }

  /// Empties the set and sizes it for at most `capacity` keys.
  void reset(std::size_t capacity) {
    buf_.assign(2 * capacity, 0);
    head_ = 0;
    tail_ = 0;
  }

  bool empty() const noexcept { return head_ == tail_; }
  std::size_t size() const noexcept { return tail_ - head_; }

  /// The smallest key. Requires !empty().
  std::uint64_t top() const noexcept {
    assert(!empty());
    return buf_[head_];
  }

  /// Inserts `k`, which must not already be present. Requires size() <
  /// capacity.
  void push(std::uint64_t k) noexcept {
    assert(size() * 2 < buf_.size());
    if (tail_ == buf_.size()) {  // move the run back to the front
      std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end(),
                buf_.begin());
      tail_ -= head_;
      head_ = 0;
    }
    std::uint64_t* p = buf_.data() + tail_;
    std::uint64_t* const lo = buf_.data() + head_;
    while (p != lo && p[-1] > k) {
      *p = p[-1];
      --p;
    }
    *p = k;
    ++tail_;
  }

  /// Removes and returns the smallest key. Requires !empty().
  std::uint64_t pop() noexcept {
    assert(!empty());
    return buf_[head_++];
  }

 private:
  std::vector<std::uint64_t> buf_;
  std::size_t head_ = 0;  // slot of the smallest key
  std::size_t tail_ = 0;  // one past the largest key
};

}  // namespace sprwl::sim
