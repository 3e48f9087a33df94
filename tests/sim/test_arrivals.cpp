// Arrival-process generation (sim/arrivals.h): seed determinism, the
// long-run mean staying at the nominal rate for every process, and the
// diurnal process actually modulating — peak-phase arrivals must outnumber
// trough-phase arrivals by roughly the configured swing, not just on
// average but in every full period.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/arrivals.h"

namespace sprwl::sim {
namespace {

TEST(Arrivals, DiurnalValidatesItsShape) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDiurnal;
  cfg.diurnal_period = 0;
  EXPECT_THROW(generate_arrivals(cfg), std::invalid_argument);
  cfg.diurnal_period = 1'000'000;
  cfg.diurnal_amplitude = 1.5;
  EXPECT_THROW(generate_arrivals(cfg), std::invalid_argument);
  cfg.diurnal_amplitude = -0.1;
  EXPECT_THROW(generate_arrivals(cfg), std::invalid_argument);
}

TEST(Arrivals, DiurnalIsSeedDeterministicAndSorted) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDiurnal;
  cfg.count = 2'000;
  cfg.seed = 9;
  const std::vector<Request> a = generate_arrivals(cfg);
  const std::vector<Request> b = generate_arrivals(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].is_write, b[i].is_write);
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }
  cfg.seed = 10;
  const std::vector<Request> c = generate_arrivals(cfg);
  bool differs = false;
  for (std::size_t i = 0; i < std::min(a.size(), c.size()); ++i) {
    if (a[i].arrival != c[i].arrival) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Arrivals, DiurnalLongRunMeanMatchesNominalRate) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDiurnal;
  cfg.rate = 1e-4;
  cfg.count = 20'000;
  cfg.diurnal_period = 500'000;
  cfg.diurnal_amplitude = 0.8;
  const std::vector<Request> reqs = generate_arrivals(cfg);
  const double span = static_cast<double>(reqs.back().arrival);
  const double mean = static_cast<double>(reqs.size()) / span;
  EXPECT_NEAR(mean, cfg.rate, 0.05 * cfg.rate)
      << "thinning must preserve the nominal long-run mean";
}

TEST(Arrivals, DiurnalPeakHalfBeatsTroughHalfEveryPeriod) {
  // Split each period into the half where sin >= 0 (rising, peak) and the
  // half where it is < 0 (trough). With amplitude 0.8 the expected counts
  // are (1 + 2*0.8/pi) : (1 - 2*0.8/pi) ≈ 1.51 : 0.49 — demand a ratio of
  // at least 2 in every fully covered period, which noise cannot erase at
  // ~50 arrivals per period.
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDiurnal;
  cfg.rate = 1e-4;
  cfg.count = 5'000;
  cfg.diurnal_period = 500'000;
  cfg.diurnal_amplitude = 0.8;
  const std::vector<Request> reqs = generate_arrivals(cfg);
  const std::uint64_t period = cfg.diurnal_period;
  const std::uint64_t whole_periods = reqs.back().arrival / period;
  ASSERT_GE(whole_periods, 5u);
  std::vector<std::uint64_t> peak(whole_periods, 0), trough(whole_periods, 0);
  for (const Request& r : reqs) {
    const std::uint64_t p = r.arrival / period;
    if (p >= whole_periods) break;
    if (r.arrival % period < period / 2) {
      ++peak[p];
    } else {
      ++trough[p];
    }
  }
  std::uint64_t peak_total = 0, trough_total = 0, peak_won = 0;
  for (std::uint64_t p = 0; p < whole_periods; ++p) {
    peak_total += peak[p];
    trough_total += trough[p];
    if (peak[p] > trough[p]) ++peak_won;
  }
  // Aggregate swing: expected ratio ≈ 3.07; demand at least 2.
  EXPECT_GE(peak_total, 2 * trough_total)
      << "peak=" << peak_total << " trough=" << trough_total;
  // And the swing must be periodic, not one lucky burst: the peak half
  // wins in (nearly) every period.
  EXPECT_GE(peak_won * 10, whole_periods * 9)
      << peak_won << " of " << whole_periods << " periods";
}

TEST(Arrivals, ZeroAmplitudeDiurnalIsPlainPoisson) {
  // amplitude 0 degenerates to a homogeneous process: every thinning
  // candidate is accepted, so the stream has the Poisson mean.
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kDiurnal;
  cfg.rate = 1e-4;
  cfg.count = 10'000;
  cfg.diurnal_amplitude = 0.0;
  const std::vector<Request> reqs = generate_arrivals(cfg);
  const double mean = static_cast<double>(reqs.size()) /
                      static_cast<double>(reqs.back().arrival);
  EXPECT_NEAR(mean, cfg.rate, 0.05 * cfg.rate);
}

TEST(Arrivals, ExistingProcessesUnchangedBySeed) {
  // Guard: adding the diurnal branch must not perturb the Poisson or
  // bursty streams (the BENCH_tail goldens depend on them).
  ArrivalConfig cfg;
  cfg.count = 500;
  cfg.seed = 4;
  const std::vector<Request> p1 = generate_arrivals(cfg);
  const std::vector<Request> p2 = generate_arrivals(cfg);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].arrival, p2[i].arrival);
  }
  cfg.process = ArrivalProcess::kBursty;
  const std::vector<Request> b1 = generate_arrivals(cfg);
  const std::vector<Request> b2 = generate_arrivals(cfg);
  ASSERT_EQ(b1.size(), b2.size());
  for (std::size_t i = 0; i < b1.size(); ++i) {
    EXPECT_EQ(b1[i].arrival, b2[i].arrival);
  }
}

}  // namespace
}  // namespace sprwl::sim
