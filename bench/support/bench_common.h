// Shared infrastructure for the figure-regeneration benches: argument
// parsing, machine profiles matching the paper's two testbeds, and the
// row/metric formatting used by every table.
//
// Every bench binary runs with reduced defaults (seconds, not minutes) and
// accepts:
//   --full                paper-scale thread sweeps and longer windows
//   --smoke               the reduced CI sweep (benches that have one)
//   --profile=broadwell|power8|both
//   --measure=<cycles>    measurement window in virtual cycles
//   --seed=<n>
// Anything else, or a malformed value, exits with status 2.
#pragma once

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/support/json.h"
#include "common/histogram.h"
#include "htm/htm.h"
#include "locks/stats.h"
#include "workloads/closed_loop.h"

namespace sprwl::bench {

struct Args {
  bool full = false;
  bool smoke = false;
  std::string profile = "both";
  std::uint64_t measure_cycles = 0;  // 0 = per-bench default
  std::uint64_t seed = 42;

  static Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        a.full = true;
      } else if (arg == "--smoke") {
        a.smoke = true;
      } else if (arg.rfind("--profile=", 0) == 0) {
        a.profile = arg.substr(10);
        if (a.profile != "broadwell" && a.profile != "power8" &&
            a.profile != "both") {
          reject(arg);
        }
      } else if (arg.rfind("--measure=", 0) == 0) {
        a.measure_cycles = number(arg, 10);
      } else if (arg.rfind("--seed=", 0) == 0) {
        a.seed = number(arg, 7);
      } else if (arg == "--help" || arg == "-h") {
        std::printf("%s", kUsage);
        std::exit(0);
      } else {
        reject(arg);
      }
    }
    return a;
  }

  bool want_profile(const char* name) const {
    return profile == "both" || profile == name;
  }

 private:
  static constexpr const char* kUsage =
      "options: --full  --smoke  --profile=broadwell|power8|both  "
      "--measure=<cycles>  --seed=<n>\n";

  [[noreturn]] static void reject(const std::string& arg) {
    std::fprintf(stderr, "bad option: %s\n%s", arg.c_str(), kUsage);
    std::exit(2);
  }

  /// The decimal value after `arg`'s first `prefix` characters.
  static std::uint64_t number(const std::string& arg, std::size_t prefix) {
    const std::string v = arg.substr(prefix);
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      reject(arg);
    }
    errno = 0;
    const std::uint64_t n = std::strtoull(v.c_str(), nullptr, 10);
    if (errno == ERANGE) reject(arg);
    return n;
  }
};

/// One evaluated machine: capacity profile, core topology and the paper's
/// thread counts.
struct Machine {
  const char* name;
  htm::CapacityProfile capacity;
  int physical_cores;
  /// How sharply SMT siblings erode per-thread HTM capacity: effective
  /// capacity = base / max(1, smt * factor). Intel statically partitions
  /// L1 between hyperthreads (factor 1 = true halving); POWER8's L2-based
  /// tracking is shared dynamically and degrades sub-linearly (0.5).
  double smt_capacity_factor;
  std::vector<int> threads_full;
  std::vector<int> threads_quick;

  const std::vector<int>& threads(bool full) const {
    return full ? threads_full : threads_quick;
  }

  /// Effective per-thread HTM capacity at `n` threads. This is the effect
  /// behind the paper's POWER8 curves degrading beyond 10 threads
  /// ("multiple hardware threads start sharing the same physical cores,
  /// which reduces their effective capacity").
  htm::CapacityProfile capacity_at(int n) const {
    const int smt = (n + physical_cores - 1) / physical_cores;
    const auto divisor = static_cast<unsigned>(smt * smt_capacity_factor);
    htm::CapacityProfile c = capacity;
    if (divisor > 1) {
      c.read_lines = std::max(1u, c.read_lines / divisor);
      c.write_lines = std::max(1u, c.write_lines / divisor);
    }
    return c;
  }
};

inline Machine broadwell_machine() {
  return Machine{"broadwell",
                 htm::kBroadwell,
                 28,
                 1.0,
                 {1, 2, 4, 8, 14, 28, 42, 56},
                 {1, 4, 14, 28, 56}};
}

inline Machine power8_machine() {
  return Machine{"power8",
                 htm::kPower8,
                 10,
                 0.5,
                 {1, 2, 4, 8, 16, 32, 64, 80},
                 {1, 4, 16, 48, 80}};
}

/// Percentages the paper's abort/commit breakdown plots show, derived from
/// one run.
struct Breakdown {
  double abort_rate = 0;        // aborted attempts / attempts
  double ab_conflict = 0;       // by cause, as share of attempts
  double ab_capacity = 0;
  double ab_explicit = 0;       // lock-busy and other explicit codes
  double ab_reader = 0;         // the paper's dedicated "reader" class
  double ab_spurious = 0;
  double commit_htm = 0;        // committed sections by mode
  double commit_rot = 0;
  double commit_gl = 0;
  double commit_unins = 0;
  double commit_pess = 0;
};

inline Breakdown make_breakdown(const htm::EngineStats& es,
                                const locks::LockStats& ls,
                                std::uint64_t reader_aborts) {
  Breakdown b;
  const double attempts = static_cast<double>(es.commits_htm + es.commits_rot +
                                              es.total_aborts());
  if (attempts > 0) {
    b.abort_rate = 100.0 * static_cast<double>(es.total_aborts()) / attempts;
    b.ab_conflict = 100.0 * static_cast<double>(es.aborts_conflict) / attempts;
    b.ab_capacity = 100.0 * static_cast<double>(es.aborts_capacity) / attempts;
    const std::uint64_t other_explicit =
        es.aborts_explicit >= reader_aborts ? es.aborts_explicit - reader_aborts : 0;
    b.ab_explicit = 100.0 * static_cast<double>(other_explicit) / attempts;
    b.ab_reader = 100.0 * static_cast<double>(
                              reader_aborts < es.aborts_explicit ? reader_aborts
                                                                 : es.aborts_explicit) /
                  attempts;
    b.ab_spurious = 100.0 * static_cast<double>(es.aborts_spurious) / attempts;
  }
  locks::OpModeCounts all = ls.reads;
  all += ls.writes;
  const double sections = static_cast<double>(all.total());
  if (sections > 0) {
    b.commit_htm = 100.0 * static_cast<double>(all.htm) / sections;
    b.commit_rot = 100.0 * static_cast<double>(all.rot) / sections;
    b.commit_gl = 100.0 * static_cast<double>(all.gl) / sections;
    b.commit_unins = 100.0 * static_cast<double>(all.unins) / sections;
    b.commit_pess = 100.0 * static_cast<double>(all.pessimistic) / sections;
  }
  return b;
}

// Row formatting exists in string form so the parallel runner's emit phase
// and the determinism test see the exact bytes a serial printf would write.

inline std::string format_series_header() {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-10s %4s | %10s | %6s %6s %6s %6s %6s | %5s %5s %5s %5s %5s | %10s "
      "%10s\n",
      "lock", "thr", "tx/s", "ab%", "cnfl%", "cap%", "rdr%", "expl%", "HTM%",
      "ROT%", "GL%", "Unin%", "Pess%", "rd-lat", "wr-lat");
  return buf;
}

/// One table row: the lock's name and thread count, then the run's
/// throughput, abort and commit-mode breakdown and mean latencies.
inline std::string format_series_row(const char* lock, int threads,
                                     const workloads::RunResult& r) {
  const Breakdown b =
      make_breakdown(r.engine_stats, r.lock_stats, r.reader_aborts);
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "%-10s %4d | %10.3e | %6.1f %6.1f %6.1f %6.1f %6.1f | %5.1f %5.1f %5.1f "
      "%5.1f %5.1f | %10.0f %10.0f\n",
      lock, threads, r.throughput_tx_s(), b.abort_rate, b.ab_conflict,
      b.ab_capacity, b.ab_reader, b.ab_explicit, b.commit_htm, b.commit_rot,
      b.commit_gl, b.commit_unins, b.commit_pess, r.read_latency.mean(),
      r.write_latency.mean());
  return buf;
}

inline void print_series_header() {
  std::fputs(format_series_header().c_str(), stdout);
}

inline void print_series_row(const char* lock, int threads,
                             const workloads::RunResult& r) {
  std::fputs(format_series_row(lock, threads, r).c_str(), stdout);
}

}  // namespace sprwl::bench
