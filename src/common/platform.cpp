#include "common/platform.h"

#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace sprwl::platform::detail {

constinit thread_local ExecutionContext* t_context = nullptr;
constinit thread_local int t_thread_id = -1;
constinit thread_local int t_os_thread_id = -1;

std::uint64_t real_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

void real_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // Portable spin hint: nothing better without arch support.
  asm volatile("" ::: "memory");
#endif
  // On hosts with fewer cores than spinners (this reproduction may run on a
  // single core), a pure busy-wait burns whole scheduler quanta before the
  // thread being waited on can run. Yielding keeps spin hand-offs at
  // syscall latency instead.
  std::this_thread::yield();
}

void real_wait_until(std::uint64_t t) noexcept {
  while (real_now() < t) real_pause();
}

}  // namespace sprwl::platform::detail
