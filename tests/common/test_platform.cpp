#include "common/platform.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace sprwl {
namespace {

TEST(Platform, RealClockIsMonotonicNonDecreasing) {
  std::uint64_t prev = platform::now();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t cur = platform::now();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(Platform, ThreadIdDefaultsToMinusOne) {
  EXPECT_EQ(platform::thread_id(), -1);
}

TEST(Platform, ThreadIdScopeAssignsAndRestores) {
  {
    ThreadIdScope scope(5);
    EXPECT_EQ(platform::thread_id(), 5);
  }
  EXPECT_EQ(platform::thread_id(), -1);
}

TEST(Platform, ThreadIdIsPerThread) {
  ThreadIdScope scope(1);
  int other = -2;
  std::thread t([&] { other = platform::thread_id(); });
  t.join();
  EXPECT_EQ(other, -1);
  EXPECT_EQ(platform::thread_id(), 1);
}

TEST(Platform, AdvanceIsNoOpWithoutContext) {
  // Must not crash or change identity; time still real.
  platform::advance(1000000);
  SUCCEED();
}

TEST(Platform, WaitUntilReturnsOnceReached) {
  const std::uint64_t target = platform::now() + 10000;
  platform::wait_until(target);
  EXPECT_GE(platform::now(), target);
}

class FakeContext final : public ExecutionContext {
 public:
  FakeContext() : ExecutionContext(42) {}
  std::uint64_t now() override { return time_; }
  void advance(std::uint64_t c) override { time_ += c; }
  void pause() override { time_ += 1; }
  void wait_until(std::uint64_t t) override {
    if (t > time_) time_ = t;
  }

 private:
  std::uint64_t time_ = 0;
};

TEST(Platform, InstalledContextRoutesAllCalls) {
  FakeContext ctx;
  platform::set_context(&ctx);
  EXPECT_EQ(platform::now(), 0u);
  platform::advance(10);
  EXPECT_EQ(platform::now(), 10u);
  platform::pause();
  EXPECT_EQ(platform::now(), 11u);
  platform::wait_until(100);
  EXPECT_EQ(platform::now(), 100u);
  EXPECT_EQ(platform::thread_id(), 42);
  platform::set_context(nullptr);
  EXPECT_EQ(platform::thread_id(), -1);
}

}  // namespace
}  // namespace sprwl
