#include "common/ema.h"

#include <gtest/gtest.h>

namespace sprwl {
namespace {

// The weight SpRWL passes (core::SpRWLock::kEmaAlpha).
constexpr double kAlpha = 0.125;

TEST(DurationEma, StartsAtZero) {
  DurationEma e;
  EXPECT_EQ(e.estimate(), 0u);
}

TEST(DurationEma, FirstSampleIsAdoptedDirectly) {
  DurationEma e;
  e.record(1000, kAlpha);
  EXPECT_EQ(e.estimate(), 1000u);
}

TEST(DurationEma, ConvergesTowardsConstantInput) {
  DurationEma e;
  e.record(100, kAlpha);
  for (int i = 0; i < 200; ++i) e.record(500, kAlpha);
  // Integer truncation per step leaves the fixpoint slightly below the
  // input; what matters for scheduling is the right magnitude.
  EXPECT_NEAR(static_cast<double>(e.estimate()), 500.0, 10.0);
}

TEST(DurationEma, TracksShiftFasterWithLargerAlpha) {
  DurationEma slow, fast;
  slow.record(100, 0.05);
  fast.record(100, 0.5);
  for (int i = 0; i < 10; ++i) {
    slow.record(1000, 0.05);
    fast.record(1000, 0.5);
  }
  EXPECT_GT(fast.estimate(), slow.estimate());
}

TEST(DurationEma, ResetClearsEstimate) {
  DurationEma e;
  e.record(42, kAlpha);
  e.reset();
  EXPECT_EQ(e.estimate(), 0u);
  e.record(7, kAlpha);
  EXPECT_EQ(e.estimate(), 7u);
}

TEST(DurationEma, SmoothsOutliers) {
  DurationEma e;
  for (int i = 0; i < 50; ++i) e.record(1000, kAlpha);
  e.record(100000, kAlpha);  // one spike
  // Estimate moves but stays well below the spike.
  EXPECT_LT(e.estimate(), 15000u);
  EXPECT_GT(e.estimate(), 1000u);
}

}  // namespace
}  // namespace sprwl
