// Option parsing for check_schedules (bench/check_schedules.cpp lists the
// options). Like bench::Args::parse, a malformed option stops the program
// with status 2 and a message naming it, before any schedule runs: a check
// that ran on a default or a zero in its place would pass having checked
// nothing.
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "check/harness.h"
#include "check/registry.h"
#include "fault/fault.h"

namespace sprwl::check {

struct Cli {
  bool dfs = false;
  bool pct = false;
  std::string replay_file;
  std::string lock;
  std::uint64_t runs = 200;
  std::uint64_t seed = fault::env_seed(1);
  std::string artifact_dir = ".";
  Workload workload;
};

namespace cli_detail {

[[noreturn]] inline void reject(const char* argv0, const std::string& what) {
  std::fprintf(stderr,
               "bad option: %s\n"
               "usage: %s [--dfs] [--pct] [--replay FILE] [--lock NAME]\n"
               "          [--runs N] [--seed N] [--threads N] [--writers N]\n"
               "          [--ops N] [--artifact-dir DIR]\n",
               what.c_str(), argv0);
  std::exit(2);
}

/// `v`, the value of option `opt`, as a decimal integer in [lo, hi].
inline std::uint64_t decimal(const char* argv0, const std::string& opt,
                             const std::string& v, std::uint64_t lo,
                             std::uint64_t hi) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
    reject(argv0, opt + " " + v);
  }
  errno = 0;
  const std::uint64_t n = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE || n < lo || n > hi) reject(argv0, opt + " " + v);
  return n;
}

inline bool writable_dir(const std::string& dir) {
  struct stat st{};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode) &&
         ::access(dir.c_str(), W_OK | X_OK) == 0;
}

}  // namespace cli_detail

/// Parses check_schedules' options. Numbers are decimal: --threads and
/// --ops at least 1, --writers at most --threads, --runs at least 1,
/// --seed any 64-bit value. --lock must name a registered lock, and the
/// artifact directory must be writable unless --replay is given.
inline Cli parse_cli(int argc, char** argv) {
  using cli_detail::decimal;
  using cli_detail::reject;
  constexpr std::uint64_t kIntMax = INT_MAX;
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 == argc) reject(argv[0], arg + " (no value)");
      return argv[++i];
    };
    auto number = [&](std::uint64_t lo, std::uint64_t hi) {
      return decimal(argv[0], arg, value(), lo, hi);
    };
    if (arg == "--dfs") {
      cli.dfs = true;
    } else if (arg == "--pct") {
      cli.pct = true;
    } else if (arg == "--replay") {
      cli.replay_file = value();
    } else if (arg == "--lock") {
      cli.lock = value();
    } else if (arg == "--artifact-dir") {
      cli.artifact_dir = value();
    } else if (arg == "--runs") {
      cli.runs = number(1, UINT64_MAX);
    } else if (arg == "--seed") {
      cli.seed = number(0, UINT64_MAX);
    } else if (arg == "--threads") {
      cli.workload.threads = static_cast<int>(number(1, kIntMax));
    } else if (arg == "--writers") {
      cli.workload.writers = static_cast<int>(number(0, kIntMax));
    } else if (arg == "--ops") {
      cli.workload.ops_per_thread = static_cast<int>(number(1, kIntMax));
    } else {
      reject(argv[0], arg);
    }
  }
  if (cli.workload.writers > cli.workload.threads) {
    reject(argv[0], "--writers " + std::to_string(cli.workload.writers) +
                        " (more than the " +
                        std::to_string(cli.workload.threads) + " threads)");
  }
  if (!cli.lock.empty()) {
    try {
      (void)make_runner(cli.lock, cli.workload);
    } catch (const std::invalid_argument&) {
      reject(argv[0], "--lock " + cli.lock + " (unknown lock)");
    }
  }
  if (cli.replay_file.empty() && !cli_detail::writable_dir(cli.artifact_dir)) {
    reject(argv[0], "--artifact-dir " + cli.artifact_dir +
                        " (not a writable directory)");
  }
  return cli;
}

}  // namespace sprwl::check
