// Exponential moving average of critical-section durations.
//
// SpRWL samples critical-section durations on a single thread (Section 3.2.1
// of the paper) and keeps an EMA per critical-section id so that waiting
// phases can be sized from the *expected* end time of readers/writers. The
// estimate is published through a relaxed atomic so every thread can read it
// without synchronization; only the sampler thread writes.
// An estimate is one 8-byte word; its owner holds the smoothing weight
// once and passes it to record(), so arrays of estimates live inline.
#pragma once

#include <atomic>
#include <cstdint>

namespace sprwl {

class DurationEma {
 public:
  /// Record one duration sample (cycles). Called by the sampler thread only.
  /// alpha is the weight of the newest sample; the paper's prototype uses a
  /// small constant so the estimate tracks workload shifts quickly without
  /// jitter (core::SpRWLock::kEmaAlpha, 1/8 as in RTT estimators).
  void record(std::uint64_t cycles, double alpha) noexcept {
    const std::uint64_t cur = value_.load(std::memory_order_relaxed);
    if (cur == 0) {
      value_.store(cycles, std::memory_order_relaxed);
      return;
    }
    const double next = static_cast<double>(cur) * (1.0 - alpha) +
                        static_cast<double>(cycles) * alpha;
    value_.store(static_cast<std::uint64_t>(next), std::memory_order_relaxed);
  }

  /// Current estimate in cycles; 0 means "no sample yet".
  std::uint64_t estimate() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

static_assert(sizeof(DurationEma) == sizeof(std::uint64_t));

}  // namespace sprwl
