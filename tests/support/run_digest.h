// A workload run's fingerprint, for tests that pin a driver's results
// exactly: every field of a workloads::RunResult (per-id counts, both
// latency histograms' count/sum/min/max/p50/p99, lock, engine and simulator
// stats, reader aborts and final virtual time) as a list of words, and an
// FNV-1a digest over that list.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/histogram.h"
#include "workloads/closed_loop.h"
#include "workloads/lock_table.h"

namespace sprwl::testutil {

/// Appends a stats struct made only of 64-bit counters, counter by counter.
template <class T>
void append_counters(std::vector<std::uint64_t>& out, const T& stats) {
  static_assert(std::has_unique_object_representations_v<T> &&
                sizeof(T) % sizeof(std::uint64_t) == 0);
  std::uint64_t words[sizeof(T) / sizeof(std::uint64_t)];
  std::memcpy(words, &stats, sizeof(T));
  out.insert(out.end(), std::begin(words), std::end(words));
}

inline void append_histogram(std::vector<std::uint64_t>& out,
                             const LatencyHistogram& h) {
  out.insert(out.end(), {h.count(), h.sum(), h.min(), h.max(),
                         h.quantile(0.5), h.quantile(0.99)});
}

inline std::vector<std::uint64_t> run_fields(const workloads::RunResult& r) {
  std::vector<std::uint64_t> f{r.reads, r.writes};
  f.insert(f.end(), r.ops.begin(), r.ops.end());
  f.push_back(static_cast<std::uint64_t>(r.duration_cycles));
  append_histogram(f, r.read_latency);
  append_histogram(f, r.write_latency);
  append_counters(f, r.lock_stats);
  append_counters(f, r.engine_stats);
  f.push_back(r.reader_aborts);
  append_counters(f, r.sim_stats);
  f.push_back(r.final_time);
  return f;
}

/// The lock-table run adds its torn-read count and whole-table totals.
inline std::vector<std::uint64_t> run_fields(
    const workloads::LockTableRunResult& r) {
  std::vector<std::uint64_t> f =
      run_fields(static_cast<const workloads::RunResult&>(r));
  f.push_back(r.invariant_failures);
  append_counters(f, r.totals);
  return f;
}

template <class Result>
std::uint64_t run_digest(const Result& r) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint64_t v : run_fields(r)) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace sprwl::testutil
