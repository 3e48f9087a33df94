#include "bench/support/check_cli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sprwl::check {
namespace {

/// Parses check_schedules' argument list `args` (without argv[0]).
Cli parse(std::vector<std::string> args) {
  args.insert(args.begin(), "check_schedules");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CheckCli, ParsesEveryOption) {
  const Cli cli = parse({"--dfs", "--lock", "SpRWL-lease-broken", "--runs",
                         "7", "--seed", "18446744073709551615", "--threads",
                         "2", "--writers", "2", "--ops", "3",
                         "--artifact-dir", ::testing::TempDir()});
  EXPECT_TRUE(cli.dfs);
  EXPECT_FALSE(cli.pct);
  EXPECT_EQ(cli.lock, "SpRWL-lease-broken");
  EXPECT_EQ(cli.runs, 7u);
  EXPECT_EQ(cli.seed, 18446744073709551615u);
  EXPECT_EQ(cli.workload.threads, 2);
  EXPECT_EQ(cli.workload.writers, 2);
  EXPECT_EQ(cli.workload.ops_per_thread, 3);
  EXPECT_EQ(cli.artifact_dir, ::testing::TempDir());
}

// Each malformed option stops the checker with status 2 and a message
// naming it, before any schedule runs. A number that is not decimal or out
// of range used to reach std::terminate (exit 134) through the engine's
// constructor, or to run nothing and pass ("--runs abc": "ok 0 schedules").
TEST(CheckCliDeathTest, RejectsMalformedNumbers) {
  const std::vector<std::vector<std::string>> cases = {
      {"--threads", "0"},  {"--threads", "abc"},
      {"--threads", "-1"}, {"--threads", "2147483648"},
      {"--writers", "-1"}, {"--writers", "1x"},
      {"--ops", "0"},      {"--ops", ""},
      {"--runs", "abc"},   {"--runs", "0"},
      {"--seed", "-1"},    {"--seed", "18446744073709551616"},
      {"--seed", " 7"},    {"--runs"}};
  for (const auto& c : cases) {
    std::vector<std::string> args = {"--pct", "--lock", "SpRWL"};
    args.insert(args.end(), c.begin(), c.end());
    EXPECT_EXIT(parse(args), testing::ExitedWithCode(2),
                "bad option: " + c[0])
        << c[0] << " " << (c.size() > 1 ? c[1] : "");
  }
}

TEST(CheckCliDeathTest, RejectsMoreWritersThanThreads) {
  EXPECT_EXIT(parse({"--threads", "2", "--writers", "3"}),
              testing::ExitedWithCode(2), "bad option: --writers 3");
  EXPECT_EXIT(parse({"--writers", "4"}), testing::ExitedWithCode(2),
              "bad option: --writers 4");
}

TEST(CheckCliDeathTest, RejectsUnknownLockBeforeAnyRun) {
  EXPECT_EXIT(parse({"--dfs", "--lock", "Nope"}), testing::ExitedWithCode(2),
              "bad option: --lock Nope \\(unknown lock\\)");
}

// An artifact directory that cannot be written is named before the run,
// not found when the first violation's repro is written (std::terminate).
TEST(CheckCliDeathTest, RejectsAnArtifactDirectoryThatCannotBeWritten) {
  EXPECT_EXIT(parse({"--dfs", "--threads", "2", "--lock", "SpRWL-broken",
                     "--artifact-dir", "/no/such/dir"}),
              testing::ExitedWithCode(2),
              "bad option: --artifact-dir /no/such/dir");
}

TEST(CheckCliDeathTest, RejectsUnknownFlags) {
  for (const char* arg : {"--dfss", "--lock=SpRWL", "-x", "dfs"}) {
    EXPECT_EXIT(parse({arg}), testing::ExitedWithCode(2),
                std::string("bad option: ") + arg);
  }
}

}  // namespace
}  // namespace sprwl::check
