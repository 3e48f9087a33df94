// Open-loop arrival generation and admission control (DESIGN.md §13).
//
// The figure benches so far are closed-loop: N fibers issue the next
// request the moment the previous one finishes, so offered load can never
// exceed capacity and queues cannot grow. Tail latency under overload —
// the regime deadlines and shedding exist for — needs an *open-loop*
// driver: requests arrive on their own clock whether or not the system
// keeps up, and the backlog (and with it sojourn time) grows without bound
// unless something sheds.
//
// This header provides the three pieces:
//   * generate_arrivals() — a seeded Poisson or bursty (on/off modulated
//     Poisson) arrival sequence in virtual time;
//   * AdmissionConfig — bounded-queue admission control: a request is shed
//     (AcquireResult::kShed) at dispatch when the backlog or its own queue
//     delay exceeds the bound. Shedding is the admission layer's verdict,
//     never a lock's: locks only report kAcquired or kTimeout.
//   * run_open_loop() — a fiber pool that serves the sequence and records
//     per-class (reader/writer) completion, timeout, shed and latency
//     statistics.
//
// Everything is driven by the virtual clock and seeded RNG, so a sweep is
// bit-reproducible given (config, seed) — the BENCH_tail.json goldens rely
// on it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/histogram.h"
#include "common/platform.h"
#include "common/rng.h"
#include "locks/deadline.h"
#include "sim/simulator.h"

namespace sprwl::sim {

enum class ArrivalProcess : std::uint8_t {
  kPoisson,  ///< memoryless arrivals at a constant mean rate
  kBursty,   ///< on/off modulated Poisson: rate alternates between
             ///< kBurstMultiplier * rate (on) and a compensating low rate
             ///< (off) so the long-run mean stays `rate`
  kDiurnal,  ///< sinusoidally modulated Poisson: rate(t) = rate * (1 +
             ///< diurnal_amplitude * sin(2π t / diurnal_period)) — the
             ///< smooth day/night swing of production traffic, with the
             ///< long-run mean staying `rate` over whole periods
};

/// Bursty process shape: kBurstOnCycles at kBurstMultiplier * rate, then
/// kBurstOffCycles at the rate that restores the long-run mean (clamped at
/// zero when the on-phase alone exceeds the mean budget).
inline constexpr std::uint64_t kBurstOnCycles = 400'000;
inline constexpr std::uint64_t kBurstOffCycles = 400'000;
inline constexpr double kBurstMultiplier = 4.0;
static_assert(kBurstOnCycles != 0 && kBurstOffCycles != 0,
              "bursty phases must be nonzero");

struct Request {
  std::uint64_t arrival = 0;  ///< virtual-time cycles
  bool is_write = false;
};

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean arrival rate in requests per virtual cycle (e.g. 1e-4 = one
  /// request every 10k cycles on average).
  double rate = 1e-4;
  std::size_t count = 1000;     ///< requests to generate
  double writer_fraction = 0.1;
  std::uint64_t seed = 1;
  /// Diurnal process shape: one full sinusoidal swing per period, peak at
  /// rate * (1 + amplitude), trough at rate * (1 - amplitude). Amplitude
  /// must lie in [0, 1] so the instantaneous rate stays nonnegative.
  std::uint64_t diurnal_period = 2'000'000;
  double diurnal_amplitude = 0.8;
};

/// Seeded arrival sequence, sorted by arrival time. Piecewise-constant-rate
/// Poisson sampling: an exponential inter-arrival draw that crosses a phase
/// boundary is discarded and re-drawn from the boundary, which is exact by
/// memorylessness.
inline std::vector<Request> generate_arrivals(const ArrivalConfig& cfg) {
  if (!(cfg.rate > 0)) throw std::invalid_argument("arrival rate must be > 0");
  Rng rng(cfg.seed ^ 0xa27c5f1edb1d2e3fULL);
  const auto exp_draw = [&](double rate) {
    // Inverse-CDF with the draw clamped away from 0 so log() is finite.
    double u = rng.next_double();
    if (u <= 0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  };

  if (cfg.process == ArrivalProcess::kDiurnal) {
    // Lewis–Shedler thinning against the peak rate: exact for an
    // inhomogeneous Poisson process, and every candidate consumes a fixed
    // number of RNG draws so the sequence is seed-reproducible.
    if (cfg.diurnal_period == 0) {
      throw std::invalid_argument("diurnal period must be nonzero");
    }
    if (!(cfg.diurnal_amplitude >= 0.0) || cfg.diurnal_amplitude > 1.0) {
      throw std::invalid_argument("diurnal amplitude must be in [0, 1]");
    }
    const double two_pi = 2.0 * 3.14159265358979323846;
    const double rate_max = cfg.rate * (1.0 + cfg.diurnal_amplitude);
    std::vector<Request> out;
    out.reserve(cfg.count);
    double t = 0;
    while (out.size() < cfg.count) {
      t += exp_draw(rate_max);
      const double phase =
          two_pi * (t / static_cast<double>(cfg.diurnal_period));
      const double r =
          cfg.rate * (1.0 + cfg.diurnal_amplitude * std::sin(phase));
      const double keep = rng.next_double();
      if (keep * rate_max <= r) {
        out.push_back(Request{static_cast<std::uint64_t>(t),
                              rng.next_bool(cfg.writer_fraction)});
      }
    }
    return out;
  }

  double rate_on = cfg.rate;
  double rate_off = cfg.rate;
  std::uint64_t period = 0;
  if (cfg.process == ArrivalProcess::kBursty) {
    period = kBurstOnCycles + kBurstOffCycles;
    rate_on = cfg.rate * kBurstMultiplier;
    const double budget = cfg.rate * static_cast<double>(period) -
                          rate_on * static_cast<double>(kBurstOnCycles);
    rate_off = std::max(0.0, budget / static_cast<double>(kBurstOffCycles));
  }

  std::vector<Request> out;
  out.reserve(cfg.count);
  double t = 0;
  while (out.size() < cfg.count) {
    double rate = rate_on;
    double phase_end = 0;
    if (period != 0) {
      const double into =
          t - std::floor(t / static_cast<double>(period)) *
                  static_cast<double>(period);
      const bool on = into < static_cast<double>(kBurstOnCycles);
      rate = on ? rate_on : rate_off;
      phase_end = t - into + (on ? static_cast<double>(kBurstOnCycles)
                                 : static_cast<double>(period));
    }
    if (rate <= 0) {  // silent off-phase: jump to the next boundary
      t = phase_end;
      continue;
    }
    const double next = t + exp_draw(rate);
    if (period != 0 && next >= phase_end) {
      t = phase_end;  // re-draw from the boundary (memorylessness)
      continue;
    }
    t = next;
    out.push_back(Request{static_cast<std::uint64_t>(t),
                          rng.next_bool(cfg.writer_fraction)});
  }
  return out;
}

struct AdmissionConfig {
  bool enabled = true;
  /// Shed when the backlog (arrived but not yet dispatched requests) at
  /// dispatch time exceeds this depth. 0 disables the depth bound.
  std::size_t max_backlog = 64;
  /// Shed when the request already waited longer than this before service
  /// could start (its sojourn bound is unmeetable). 0 disables.
  std::uint64_t max_queue_delay = 0;
  /// Per-class overrides for READER requests (0 = inherit the shared bound
  /// above). Overload policy usually wants to shed analytical readers
  /// before writers — a dropped scan is retryable, a dropped update is
  /// lost work — so readers get *tighter* bounds than the shared ones
  /// while writers keep them.
  std::size_t reader_max_backlog = 0;
  std::uint64_t reader_max_queue_delay = 0;

  std::size_t backlog_bound(bool is_write) const noexcept {
    return !is_write && reader_max_backlog != 0 ? reader_max_backlog
                                                : max_backlog;
  }
  std::uint64_t queue_delay_bound(bool is_write) const noexcept {
    return !is_write && reader_max_queue_delay != 0 ? reader_max_queue_delay
                                                    : max_queue_delay;
  }
};

struct ClassStats {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t shed = 0;
  LatencyHistogram sojourn;      ///< arrival -> completion (completed only)
  LatencyHistogram queue_delay;  ///< arrival -> dispatch (served + timed out)

  void merge(const ClassStats& o) noexcept {
    offered += o.offered;
    completed += o.completed;
    timeouts += o.timeouts;
    shed += o.shed;
    sojourn.merge(o.sojourn);
    queue_delay.merge(o.queue_delay);
  }
};

struct OpenLoopStats {
  ClassStats readers;
  ClassStats writers;
  std::uint64_t final_time = 0;  ///< virtual time the last server finished

  std::uint64_t served() const noexcept {
    return readers.completed + writers.completed;
  }
  /// Completed requests per virtual cycle (goodput — shed and timed-out
  /// requests do not count).
  double goodput(std::uint64_t horizon) const noexcept {
    return horizon ? static_cast<double>(served()) /
                         static_cast<double>(horizon)
                   : 0.0;
  }
};

/// Serves `reqs` (sorted by arrival) on `nservers` fibers inside `sim`.
/// Servers claim requests FCFS through a shared ticket, sleep until the
/// arrival instant when ahead of it, apply admission control, and invoke
///   serve(request, tid) -> locks::AcquireResult
/// which is expected to run the critical section (under a timed or untimed
/// acquisition — its choice) and report how the acquisition ended.
///
/// Single-simulator use only: the stats are written by multiple fibers
/// without synchronization, which is safe because fibers share one OS
/// thread.
template <class Serve>
OpenLoopStats run_open_loop(Simulator& sim, int nservers,
                            const std::vector<Request>& reqs,
                            const AdmissionConfig& adm, Serve&& serve) {
  OpenLoopStats stats;
  std::atomic<std::size_t> next{0};
  sim.run(nservers, [&](int tid) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= reqs.size()) break;
      const Request& rq = reqs[i];
      if (platform::now() < rq.arrival) platform::wait_until(rq.arrival);
      const std::uint64_t start = platform::now();
      const std::uint64_t qdelay = start - rq.arrival;
      ClassStats& cls = rq.is_write ? stats.writers : stats.readers;
      ++cls.offered;
      if (adm.enabled) {
        bool shed = false;
        const std::uint64_t delay_bound = adm.queue_delay_bound(rq.is_write);
        const std::size_t backlog_bound = adm.backlog_bound(rq.is_write);
        if (delay_bound != 0 && qdelay > delay_bound) {
          shed = true;
        } else if (backlog_bound != 0) {
          // Backlog = requests that have arrived by `start` but not been
          // dispatched. reqs is sorted, so a binary search counts arrivals;
          // this is observer arithmetic and charges no virtual time.
          const auto arrived = static_cast<std::size_t>(
              std::upper_bound(reqs.begin(), reqs.end(), start,
                               [](std::uint64_t t, const Request& r) {
                                 return t < r.arrival;
                               }) -
              reqs.begin());
          if (arrived > i + 1 && arrived - (i + 1) > backlog_bound) {
            shed = true;
          }
        }
        if (shed) {
          ++cls.shed;
          continue;
        }
      }
      cls.queue_delay.record(qdelay);
      const locks::AcquireResult r = serve(rq, tid);
      if (r == locks::AcquireResult::kAcquired) {
        ++cls.completed;
        cls.sojourn.record(platform::now() - rq.arrival);
      } else {
        ++cls.timeouts;
      }
    }
  });
  stats.final_time = sim.final_time();
  return stats;
}

}  // namespace sprwl::sim
