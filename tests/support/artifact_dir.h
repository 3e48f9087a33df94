// A directory of its own for each test's checker repro artifacts, named
// after the test and reused by later runs. Tests that catch a violation
// write CHECK_repro_<seed>.json and read it back; several use the same
// seed, so in one shared directory two of them running at once under
// `ctest -j` overwrite each other's file mid-read.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace sprwl::testutil {

inline std::string artifact_dir() {
  const ::testing::TestInfo* t =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (std::string(t->test_suite_name()) + "." + t->name());
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace sprwl::testutil
