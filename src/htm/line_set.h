// Open-addressing hash maps with O(1) bulk clear, used for transaction
// read/write-set bookkeeping.
//
// A transaction descriptor is reused across millions of attempts, so the
// set must clear in O(1): each slot carries the epoch in which it was
// written and lookups ignore slots from older epochs. A map starts at 16
// slots and growth doubles the table, so an idle descriptor commits almost
// nothing; keys are never removed within an epoch.
#pragma once

#include <cstdint>
#include <vector>

namespace sprwl::htm {

namespace detail {
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace detail

/// Map from a key (line index or pointer) to a 32-bit payload.
template <class Key>
class EpochMap {
 public:
  EpochMap() : slots_(16) {}

  void clear() noexcept {
    ++epoch_;
    size_ = 0;
    if (epoch_ == 0) {  // epoch wrapped: hard reset (every ~4G transactions)
      for (auto& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  std::size_t size() const noexcept { return size_; }

  /// Returns the payload slot for `key`, inserting `fresh` if absent.
  /// `inserted` reports whether the key was new.
  std::uint32_t& get_or_insert(Key key, std::uint32_t fresh, bool& inserted) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::mix64(static_cast<std::uint64_t>(key)) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.epoch = epoch_;
        s.key = key;
        s.value = fresh;
        ++size_;
        inserted = true;
        return s.value;
      }
      if (s.key == key) {
        inserted = false;
        return s.value;
      }
      i = (i + 1) & mask;
    }
  }

  /// Returns the payload for `key`, or nullptr if absent.
  const std::uint32_t* find(Key key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = detail::mix64(static_cast<std::uint64_t>(key)) & mask;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.key == key) return &s.value;
      i = (i + 1) & mask;
    }
  }

 private:
  struct Slot {
    Key key{};
    std::uint32_t epoch = 0;
    std::uint32_t value = 0;
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      std::size_t i = detail::mix64(static_cast<std::uint64_t>(s.key)) & mask;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t epoch_ = 1;
  std::size_t size_ = 0;
};

}  // namespace sprwl::htm
