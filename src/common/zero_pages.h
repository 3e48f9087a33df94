// Zero-filled tables that commit memory on first touch.
//
// ZeroPages<T> is one private anonymous mapping reserved with
// MAP_NORESERVE. A page that no store has touched reads as the kernel's
// shared zero page, so a table sized for the worst case holds resident
// memory only for the pages a run writes, and constructing one touches
// nothing. (A zero-filled std::vector writes every page up front.) The
// reservation is address space only, but under strict overcommit
// accounting (vm.overcommit_memory=2) it counts against the commit limit.
//
// T is a plain type whose all-zero bytes are its initial value: integers,
// or structs of them. Shared elements are accessed through std::atomic_ref
// (at() for a scalar T), never through std::atomic objects, which the
// mapping never constructs.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <new>
#include <type_traits>

namespace sprwl {

template <class T>
class ZeroPages {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  /// n elements; n = 0 maps nothing.
  explicit ZeroPages(std::size_t n) : size_(n) {
    if (n == 0) return;
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = static_cast<T*>(p);
  }
  ~ZeroPages() {
    if (data_ != nullptr) munmap(data_, size_ * sizeof(T));
  }
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  T& operator[](std::size_t i) const noexcept { return data_[i]; }
  /// Atomic view of element i.
  std::atomic_ref<T> at(std::size_t i) const noexcept {
    return std::atomic_ref<T>(data_[i]);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_;
};

}  // namespace sprwl
