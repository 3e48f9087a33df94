// Cache line → dense version-table id, handed out in first-touch order.
//
// The HTM engine indexes its version table (and owner / history tables) by
// a dense per-line id rather than by an address hash: heap addresses vary
// run to run (ASLR, allocator history), and hashing them made
// version-table aliasing — and therefore abort counts — address-dependent.
// First-touch order is part of the deterministic schedule, so with dense
// ids two runs of the same seeded workload behave identically, across
// processes and regardless of which bench worker thread hosts the point.
//
// Layout: a radix directory over the address, so ids of lines that share a
// page share a cache line of the map. A workload's lines cluster on few
// pages (the Fig. 3 hash map touches ~12k lines on ~200 pages), so the
// walk's three loads hit a few hot lines instead of one random line per
// access:
//
//   root  [addr bits 21..47]  one word per 2 MiB region  → mid node
//   mid   [addr bits 12..20]  one word per 4 KiB page    → id page
//   page  [addr bits  6..11]  one word per 64-byte line  → id + 1
//
// A word is 0 while empty and kBusy while the thread that found it empty
// installs the child (or draws the id); everyone else waits for the
// release store, so each line gets exactly one id and ids stay dense even
// when real threads race (the spin is unobservable under the simulator).
// Addresses are folded modulo 2^48, the user address space of x86-64 and
// AArch64 Linux.
//
// Storage: one anonymous mmap per map, reserved up front (MAP_NORESERVE)
// and touched only where nodes are installed, so nothing is allocated
// during a run and the process heap layout never depends on which lines
// a run touches. The reservation covers the worst case — every id on its
// own region — so the directory cannot fill before the id limit does. It
// is address space only (~2.8 GiB at the default 2^20-entry table), but
// under strict overcommit accounting (vm.overcommit_memory=2) it counts
// against the commit limit.
// Past `limit()` ids, a line not seen before takes the address-hash index
// instead (deterministic aliasing; never reached by the shipped workloads)
// and installs nothing.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "htm/line_set.h"

namespace sprwl::htm {

static_assert(sizeof(void*) == 8, "LineIdMap reserves a 48-bit directory");

class LineIdMap {
 public:
  /// Ids are returned modulo 2^table_bits (the version table wraps; tests
  /// use tiny tables to force aliasing). First-touch ids are handed out to
  /// the first limit() lines: at least 2^14 even for tiny tables, at most
  /// 2^23.
  explicit LineIdMap(int table_bits)
      : table_mask_((std::uint64_t{1} << table_bits) - 1),
        limit_(1u << std::clamp(table_bits, 14, 23)) {
    // Racing real threads may each overshoot the limit by one id, and a
    // thread that loses that race may leave one mid node and one id page
    // behind; kRaceSlack lines of headroom cover it.
    unit_cap_ = 1 + (std::uint64_t{limit_} + kRaceSlack) *
                        (kMidUnits + kPageUnits);
    bytes_ = (kRootWords + unit_cap_ * kUnitWords) * sizeof(std::uint32_t);
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    root_ = static_cast<std::uint32_t*>(p);
    units_ = root_ + kRootWords;
  }
  ~LineIdMap() { munmap(root_, bytes_); }

  LineIdMap(const LineIdMap&) = delete;
  LineIdMap& operator=(const LineIdMap&) = delete;

  /// Version-table index of the cache line holding `addr`.
  std::uint32_t line_of(std::uintptr_t addr) noexcept {
    const std::uint32_t mid = load(root_[(addr >> kRegionShift) & kRootMask]);
    if (usable(mid)) {
      const std::uint32_t page =
          load(node(mid)[(addr >> kPageShift) & (kMidUnits * kUnitWords - 1)]);
      if (usable(page)) {
        const std::uint32_t id = load(node(page)[(addr >> kLineShift) & 63]);
        if (usable(id)) return (id - 1) & static_cast<std::uint32_t>(table_mask_);
      }
    }
    return line_of_slow(addr);
  }

  /// Lines that received a first-touch id so far (may exceed limit() by
  /// the number of real threads that raced past it).
  std::uint32_t assigned() const noexcept {
    return next_id_.load(std::memory_order_relaxed);
  }
  std::uint32_t limit() const noexcept { return limit_; }

 private:
  static constexpr int kLineShift = 6;
  static constexpr int kPageShift = 12;
  static constexpr int kRegionShift = 21;
  static constexpr std::uint64_t kRootWords = std::uint64_t{1} << (48 - kRegionShift);
  static constexpr std::uint64_t kRootMask = kRootWords - 1;
  // Nodes are carved from the arena in units of one id page (64 words).
  static constexpr std::uint64_t kUnitWords = 64;
  static constexpr std::uint32_t kPageUnits = 1;
  static constexpr std::uint32_t kMidUnits =
      (1u << (kRegionShift - kPageShift)) / kUnitWords;
  static constexpr std::uint32_t kRaceSlack = 4096;
  static constexpr std::uint32_t kBusy = ~0u;

  static std::uint32_t load(std::uint32_t& w) noexcept {
    return std::atomic_ref<std::uint32_t>(w).load(std::memory_order_acquire);
  }
  // Neither empty (0) nor kBusy: one compare via unsigned wrap-around.
  static bool usable(std::uint32_t v) noexcept { return v + 1 > 1; }
  std::uint32_t* node(std::uint32_t unit) const noexcept {
    return units_ + std::uint64_t{unit} * kUnitWords;
  }
  bool exhausted() const noexcept {
    return next_id_.load(std::memory_order_relaxed) >= limit_;
  }
  std::uint32_t hashed(std::uintptr_t addr) const noexcept {
    return static_cast<std::uint32_t>(detail::mix64(addr >> kLineShift) &
                                      table_mask_);
  }

  // Returns the value `w` settles on once it is non-empty and not kBusy,
  // first claiming it (empty → kBusy) and storing make() into it when it
  // is empty. Returns 0 instead of claiming once the id limit is reached
  // (or when make() returns 0, which leaves `w` empty).
  template <class Make>
  std::uint32_t settle(std::uint32_t& w, Make make) noexcept {
    std::atomic_ref<std::uint32_t> a(w);
    std::uint32_t v = a.load(std::memory_order_acquire);
    for (;;) {
      if (usable(v)) return v;
      if (v == 0) {
        if (exhausted()) return 0;
        if (a.compare_exchange_strong(v, kBusy, std::memory_order_acq_rel)) {
          v = make();
          a.store(v, std::memory_order_release);
          return v;
        }
        continue;  // lost the claim: v holds the winner's word
      }
      v = a.load(std::memory_order_acquire);  // kBusy: a racing real thread
    }
  }

  // Cold path: installs missing nodes and draws the line's id.
  [[gnu::noinline]] std::uint32_t line_of_slow(std::uintptr_t addr) noexcept {
    // 0 (the line hashes) only if more than kRaceSlack threads raced the
    // id limit; the bound keeps even that case inside the reservation.
    const auto alloc = [this](std::uint32_t units) -> std::uint32_t {
      const std::uint64_t u =
          next_unit_.fetch_add(units, std::memory_order_relaxed);
      return u + units <= unit_cap_ ? static_cast<std::uint32_t>(u) : 0;
    };
    const std::uint32_t mid =
        settle(root_[(addr >> kRegionShift) & kRootMask],
               [&] { return alloc(kMidUnits); });
    if (mid == 0) return hashed(addr);
    const std::uint32_t page =
        settle(node(mid)[(addr >> kPageShift) & (kMidUnits * kUnitWords - 1)],
               [&] { return alloc(kPageUnits); });
    if (page == 0) return hashed(addr);
    const std::uint32_t id =
        settle(node(page)[(addr >> kLineShift) & 63], [&] {
          return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
        });
    if (id == 0) return hashed(addr);
    return (id - 1) & static_cast<std::uint32_t>(table_mask_);
  }

  std::uint64_t table_mask_;
  std::uint32_t limit_;
  std::uint64_t unit_cap_ = 0;
  std::size_t bytes_ = 0;
  std::uint32_t* root_ = nullptr;
  std::uint32_t* units_ = nullptr;
  // Unit 0 is never handed out, so a node index is never 0 (empty).
  std::atomic<std::uint64_t> next_unit_{1};
  std::atomic<std::uint32_t> next_id_{0};
};

}  // namespace sprwl::htm
