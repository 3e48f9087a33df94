// A simulator schedule's fingerprint, for tests that pin schedules:
// FNV-1a over the fiber activation order, then the run's final virtual
// time.
#pragma once

#include <cstdint>
#include <vector>

namespace sprwl::testutil {

inline std::uint64_t schedule_digest(const std::vector<int>& order,
                                     std::uint64_t final_time) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (const int tid : order) mix(static_cast<std::uint64_t>(tid));
  mix(final_time);
  return h;
}

}  // namespace sprwl::testutil
