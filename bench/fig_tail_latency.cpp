// Tail latency under open-loop overload — deadline-aware acquisition plus
// admission control (DESIGN.md §13).
//
// The figure benches measure closed-loop throughput, where offered load can
// never exceed capacity. This bench drives the locks open-loop: a seeded
// Poisson/bursty arrival stream at 0.8x–3x of each lock's *measured*
// sustainable service rate, served by a fixed fiber pool. Two operating
// modes per point:
//
//   admission off — untimed acquisitions, every arrival is served. Under
//     overload the backlog (and with it sojourn time) grows without bound:
//     doubling the horizon at 2x load visibly inflates p999.
//   admission on  — bounded queue: arrivals are shed once the backlog or
//     their queue delay exceeds the bound, and dispatched requests acquire
//     with a deadline (try_read_for / try_write_for), so sojourn stays
//     bounded at the cost of a nonzero shed/timeout rate — graceful
//     degradation instead of collapse.
//
// A storm regime composes the overload with a fault::FaultPlan interrupt
// storm (spurious HTM aborts), the adversarial case for the speculation-
// based locks. Results land in BENCH_tail.json; --smoke runs a reduced
// sweep. Every run enforces the acceptance properties (bounded p999 + nonzero
// shed with admission on; p999 growth across horizons with it off),
// exiting nonzero on violation.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/support/bench_common.h"
#include "common/costs.h"
#include "core/sprwl.h"
#include "fault/fault.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/deadline.h"
#include "locks/phase_fair.h"
#include "locks/posix_rwlock.h"
#include "locks/tle.h"
#include "sim/arrivals.h"
#include "sim/simulator.h"

namespace sprwl::bench {
namespace {

constexpr int kServers = 8;
constexpr std::size_t kCells = 4;
constexpr std::uint64_t kReaderWork = 600;
constexpr std::uint64_t kWriterWork = 300;

struct alignas(64) Cell {
  htm::Shared<std::uint64_t> v;
};

struct Params {
  std::size_t requests = 4000;
  double writer_fraction = 0.1;
  std::uint64_t seed = 42;
};

struct PointResult {
  sim::OpenLoopStats stats;
  double offered_rate = 0;  // requests per cycle
  std::uint64_t budget = 0;
  std::uint64_t queue_bound = 0;
};

/// One open-loop run of `reqs` over a fresh lock instance.
template <class MakeLock>
PointResult run_point(MakeLock&& make_lock, const std::vector<sim::Request>& reqs,
                      const sim::AdmissionConfig& adm, std::uint64_t budget,
                      const fault::FaultPlan* plan) {
  std::vector<Cell> cells(kCells);
  htm::Engine engine;
  auto lock = make_lock(kServers);
  sim::Simulator sim;
  htm::EngineScope escope(engine);
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultScope> fscope;
  if (plan != nullptr) {
    injector = std::make_unique<fault::FaultInjector>(*plan, &sim, &engine);
    fscope = std::make_unique<fault::FaultScope>(*injector);
  }

  const auto read_body = [&] {
    fault::checkpoint(SchedKind::kReadBody);
    const std::uint64_t a = cells[0].v.load();
    platform::advance(kReaderWork);
    for (std::size_t c = 1; c < kCells; ++c) (void)cells[c].v.load();
    (void)a;
  };
  const auto write_body = [&] {
    fault::checkpoint(SchedKind::kWriteBody);
    const std::uint64_t v = cells[0].v.load() + 1;
    platform::advance(kWriterWork);
    for (std::size_t c = 0; c < kCells; ++c) cells[c].v.store(v);
  };

  PointResult pr;
  pr.budget = budget;
  pr.queue_bound = adm.max_queue_delay;
  pr.stats = sim::run_open_loop(
      sim, kServers, reqs, adm,
      [&](const sim::Request& rq, int /*tid*/) -> locks::AcquireResult {
        if (budget == 0) {  // untimed service (admission-off mode)
          if (rq.is_write) {
            lock->write(1, write_body);
          } else {
            lock->read(0, read_body);
          }
          return locks::AcquireResult::kAcquired;
        }
        return rq.is_write ? lock->try_write_for(1, budget, write_body)
                           : lock->try_read_for(0, budget, read_body);
      });
  return pr;
}

/// Sustainable service rate: every request is present at t=0 (a saturated
/// batch), admission off — served/final_time is the rate the pool can
/// actually sustain on this lock, contention included.
template <class MakeLock>
double calibrate_rate(MakeLock&& make_lock, const Params& p) {
  Rng rng(p.seed ^ 0x5bd1e995);
  std::vector<sim::Request> reqs(p.requests / 4);
  for (auto& r : reqs) r = sim::Request{0, rng.next_bool(p.writer_fraction)};
  sim::AdmissionConfig adm;
  adm.enabled = false;
  const PointResult pr = run_point(make_lock, reqs, adm, 0, nullptr);
  return pr.stats.final_time
             ? static_cast<double>(pr.stats.served()) /
                   static_cast<double>(pr.stats.final_time)
             : 0.0;
}

struct Row {
  std::string lock;
  std::string process;
  std::string regime;
  double multiplier = 0;
  bool admission = false;
  std::size_t requests = 0;
  PointResult pr;
};

void print_rows(const std::vector<Row>& rows) {
  std::printf(
      "%-10s %-7s %-5s %4s %3s %6s | %8s | %9s %9s %9s | %6s %6s %6s | %9s\n",
      "lock", "process", "storm", "mult", "adm", "reqs", "goodput",
      "rd-p50", "rd-p99", "rd-p999", "to%", "rshed%", "wshed%", "wr-p99");
  for (const Row& r : rows) {
    const sim::ClassStats& rd = r.pr.stats.readers;
    const sim::ClassStats& wr = r.pr.stats.writers;
    const double offered =
        static_cast<double>(rd.offered + wr.offered);
    const double to_pct =
        offered > 0
            ? 100.0 * static_cast<double>(rd.timeouts + wr.timeouts) / offered
            : 0;
    // Shed rates per class: the per-class admission bounds exist exactly so
    // these two columns diverge under overload (readers shed first).
    const double rshed_pct =
        rd.offered > 0
            ? 100.0 * static_cast<double>(rd.shed) /
                  static_cast<double>(rd.offered)
            : 0;
    const double wshed_pct =
        wr.offered > 0
            ? 100.0 * static_cast<double>(wr.shed) /
                  static_cast<double>(wr.offered)
            : 0;
    std::printf(
        "%-10s %-7s %-5s %4.1f %3s %6zu | %8.2e | %9llu %9llu %9llu | %6.1f "
        "%6.1f %6.1f | %9llu\n",
        r.lock.c_str(), r.process.c_str(), r.regime.c_str(), r.multiplier,
        r.admission ? "on" : "off", r.requests,
        r.pr.stats.goodput(r.pr.stats.final_time),
        static_cast<unsigned long long>(rd.sojourn.quantile(0.50)),
        static_cast<unsigned long long>(rd.sojourn.quantile(0.99)),
        static_cast<unsigned long long>(rd.sojourn.quantile(0.999)), to_pct,
        rshed_pct, wshed_pct,
        static_cast<unsigned long long>(wr.sojourn.quantile(0.99)));
  }
}

void json_class(JsonWriter& j, const char* name, const sim::ClassStats& c) {
  j.key(name).begin_object();
  j.key("offered").value(c.offered);
  j.key("completed").value(c.completed);
  j.key("timeouts").value(c.timeouts);
  j.key("shed").value(c.shed);
  j.key("sojourn_p50").value(c.sojourn.quantile(0.50));
  j.key("sojourn_p99").value(c.sojourn.quantile(0.99));
  j.key("sojourn_p999").value(c.sojourn.quantile(0.999));
  j.key("sojourn_mean").value(c.sojourn.mean());
  j.key("queue_delay_p99").value(c.queue_delay.quantile(0.99));
  j.end_object();
}

void write_json(const std::vector<Row>& rows, bool acceptance_ok,
                bool smoke) {
  JsonWriter j;
  j.begin_object();
  j.key("bench").value("fig_tail_latency");
  j.key("smoke").value(smoke);
  j.key("acceptance_ok").value(acceptance_ok);
  j.key("servers").value(kServers);
  j.key("rows").begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.key("lock").value(r.lock);
    j.key("process").value(r.process);
    j.key("regime").value(r.regime);
    j.key("multiplier").value(r.multiplier);
    j.key("admission").value(r.admission);
    j.key("requests").value(static_cast<std::uint64_t>(r.requests));
    j.key("offered_rate").value(r.pr.offered_rate);
    j.key("deadline_budget").value(r.pr.budget);
    j.key("queue_bound").value(r.pr.queue_bound);
    j.key("goodput").value(r.pr.stats.goodput(r.pr.stats.final_time));
    j.key("final_time").value(r.pr.stats.final_time);
    json_class(j, "readers", r.pr.stats.readers);
    json_class(j, "writers", r.pr.stats.writers);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  if (j.write_file("BENCH_tail.json")) std::printf("\nwrote BENCH_tail.json\n");
}

template <class MakeLock>
void sweep_lock(const char* name, MakeLock&& make_lock, const Params& p,
                bool smoke, std::vector<Row>& rows, bool& acceptance_ok) {
  const double cap = calibrate_rate(make_lock, p);
  if (cap <= 0) {
    std::printf("%s: calibration failed\n", name);
    acceptance_ok = false;
    return;
  }
  const double mean_service = static_cast<double>(kServers) / cap;
  const auto budget = static_cast<std::uint64_t>(6.0 * mean_service);
  sim::AdmissionConfig adm_on;
  adm_on.enabled = true;
  adm_on.max_backlog = 4 * kServers;
  adm_on.max_queue_delay = static_cast<std::uint64_t>(60.0 * mean_service);
  // Per-class policy: shed analytical readers first. Readers get half the
  // writers' backlog depth and queue-delay bound, so under overload the
  // retryable scans absorb the shedding while updates keep landing.
  adm_on.reader_max_backlog = 2 * kServers;
  adm_on.reader_max_queue_delay =
      static_cast<std::uint64_t>(30.0 * mean_service);
  sim::AdmissionConfig adm_off;
  adm_off.enabled = false;

  // The static sojourn ceiling admission control must enforce: a dispatched
  // request waited at most queue-bound and holds the lock path for at most
  // its deadline budget plus one section; 4x slack absorbs scheduling.
  const std::uint64_t p999_cap =
      4 * (adm_on.max_queue_delay + budget + kReaderWork + kWriterWork);

  const std::vector<double> mults =
      smoke ? std::vector<double>{0.8, 2.0}
            : std::vector<double>{0.8, 1.2, 2.0, 3.0};

  for (const double mult : mults) {
    for (const auto process :
         {sim::ArrivalProcess::kPoisson, sim::ArrivalProcess::kBursty,
          sim::ArrivalProcess::kDiurnal}) {
      if (process != sim::ArrivalProcess::kPoisson && mult != 2.0) continue;
      sim::ArrivalConfig acfg;
      acfg.process = process;
      acfg.rate = mult * cap;
      acfg.count = p.requests;
      acfg.writer_fraction = p.writer_fraction;
      acfg.seed = p.seed;
      if (process == sim::ArrivalProcess::kDiurnal) {
        // Four day/night swings per run: peaks at 1.8x the (already 2x)
        // mean rate, troughs at 0.2x — overload pulses with recovery
        // windows, the shape admission control degrades most gracefully on.
        acfg.diurnal_period = static_cast<std::uint64_t>(
            static_cast<double>(p.requests) / acfg.rate / 4.0);
        acfg.diurnal_amplitude = 0.8;
      }
      const std::vector<sim::Request> reqs = sim::generate_arrivals(acfg);

      for (const bool admission : {true, false}) {
        // Horizon growth probe: the admission-off overload point runs twice
        // the horizon too, to expose unbounded backlog growth.
        std::vector<std::size_t> sizes{p.requests};
        if (!admission && mult >= 2.0 &&
            process == sim::ArrivalProcess::kPoisson) {
          sizes.push_back(2 * p.requests);
        }
        for (const std::size_t n : sizes) {
          std::vector<sim::Request> run_reqs = reqs;
          if (n != reqs.size()) {
            sim::ArrivalConfig big = acfg;
            big.count = n;
            run_reqs = sim::generate_arrivals(big);
          }
          for (const bool storm : {false, true}) {
            if (storm && (mult != 2.0 || !admission || n != p.requests ||
                          process != sim::ArrivalProcess::kPoisson)) {
              continue;
            }
            fault::FaultPlan plan;
            const fault::FaultPlan* pplan = nullptr;
            if (storm) {
              plan.seed = p.seed;
              plan.storm.from = 0;
              // The triangular ramp peaks mid-window; span the run so the
              // peak actually lands inside it.
              plan.storm.until = static_cast<std::uint64_t>(
                  1.2 * static_cast<double>(n) / acfg.rate);
              plan.storm.peak_rate = 0.6;
              fault::SyscallSpec sys;  // a syscalling reader defeats elision
              sys.tid = 1;
              plan.syscalls.push_back(sys);
              pplan = &plan;
            }
            Row row;
            row.lock = name;
            row.process = process == sim::ArrivalProcess::kPoisson ? "poisson"
                          : process == sim::ArrivalProcess::kBursty
                              ? "bursty"
                              : "diurnal";
            row.regime = storm ? "storm" : "none";
            row.multiplier = mult;
            row.admission = admission;
            row.requests = n;
            row.pr = run_point(make_lock, run_reqs,
                               admission ? adm_on : adm_off,
                               admission ? budget : 0, pplan);
            row.pr.offered_rate = acfg.rate;
            rows.push_back(std::move(row));
          }
        }
      }
    }
  }

  // --- acceptance: graceful shedding vs unbounded growth -------------------
  const auto find = [&](double mult, bool adm, std::size_t n,
                        const char* process) -> const Row* {
    for (const Row& r : rows) {
      if (r.lock == name && r.multiplier == mult && r.admission == adm &&
          r.requests == n && r.process == process && r.regime == "none") {
        return &r;
      }
    }
    return nullptr;
  };
  const Row* on2 = find(2.0, true, p.requests, "poisson");
  const Row* off2 = find(2.0, false, p.requests, "poisson");
  const Row* off2_long = find(2.0, false, 2 * p.requests, "poisson");
  const Row* diurnal_on = find(2.0, true, p.requests, "diurnal");
  if (on2 == nullptr || off2 == nullptr || off2_long == nullptr ||
      diurnal_on == nullptr) {
    std::printf("%s: missing acceptance rows\n", name);
    acceptance_ok = false;
    return;
  }
  const std::uint64_t shed =
      on2->pr.stats.readers.shed + on2->pr.stats.writers.shed;
  const std::uint64_t p999_on = std::max(
      on2->pr.stats.readers.sojourn.quantile(0.999),
      on2->pr.stats.writers.sojourn.quantile(0.999));
  const std::uint64_t p999_off = off2->pr.stats.readers.sojourn.quantile(0.999);
  const std::uint64_t p999_off_long =
      off2_long->pr.stats.readers.sojourn.quantile(0.999);
  const bool bounded = p999_on <= p999_cap;
  const bool sheds = shed > 0;
  // Open-loop overload with no shedding: backlog grows with the horizon, so
  // doubling the request count must visibly inflate the tail.
  const bool grows =
      static_cast<double>(p999_off_long) > 1.3 * static_cast<double>(p999_off);
  // Per-class policy: readers sit on tighter bounds than writers, so at the
  // overload point the reader class must shed at a rate >= the writers'.
  const sim::ClassStats& rd2 = on2->pr.stats.readers;
  const sim::ClassStats& wr2 = on2->pr.stats.writers;
  const double rshed_rate =
      rd2.offered ? static_cast<double>(rd2.shed) /
                        static_cast<double>(rd2.offered)
                  : 0;
  const double wshed_rate =
      wr2.offered ? static_cast<double>(wr2.shed) /
                        static_cast<double>(wr2.offered)
                  : 0;
  const bool readers_first = rshed_rate >= wshed_rate;
  // Diurnal acceptance: the overload pulses (peaks at 3.6x capacity) must
  // force shedding, yet the same static sojourn ceiling holds — the trough
  // phases are recovery windows, not an excuse for a looser bound.
  const std::uint64_t diurnal_p999 =
      std::max(diurnal_on->pr.stats.readers.sojourn.quantile(0.999),
               diurnal_on->pr.stats.writers.sojourn.quantile(0.999));
  const std::uint64_t diurnal_shed = diurnal_on->pr.stats.readers.shed +
                                     diurnal_on->pr.stats.writers.shed;
  const bool diurnal_ok = diurnal_p999 <= p999_cap && diurnal_shed > 0;
  std::printf(
      "%s diurnal @2.0x: p999(adm on)=%llu (cap %llu) shed=%llu  [%s]\n",
      name, static_cast<unsigned long long>(diurnal_p999),
      static_cast<unsigned long long>(p999_cap),
      static_cast<unsigned long long>(diurnal_shed),
      diurnal_ok ? "ok" : "FAIL");
  if (!diurnal_ok) acceptance_ok = false;
  std::printf(
      "%s acceptance @2.0x: p999(adm on)=%llu (cap %llu) shed=%llu "
      "(rd %.1f%% wr %.1f%%) p999(adm off)=%llu -> %llu over 2x horizon  "
      "[%s]\n",
      name, static_cast<unsigned long long>(p999_on),
      static_cast<unsigned long long>(p999_cap),
      static_cast<unsigned long long>(shed), 100.0 * rshed_rate,
      100.0 * wshed_rate, static_cast<unsigned long long>(p999_off),
      static_cast<unsigned long long>(p999_off_long),
      bounded && sheds && grows && readers_first ? "ok" : "FAIL");
  if (!(bounded && sheds && grows && readers_first)) acceptance_ok = false;
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  using namespace sprwl::bench;
  const Args args = Args::parse(argc, argv);
  const bool smoke = args.smoke;
  Params p;
  p.seed = args.seed;
  if (smoke) p.requests = 600;
  if (args.full) p.requests = 12000;

  std::printf(
      "Tail latency under open-loop overload (%zu requests, %d servers, "
      "seed %llu)%s\n\n",
      p.requests, kServers, static_cast<unsigned long long>(p.seed),
      smoke ? " (smoke)" : "");

  std::vector<Row> rows;
  bool acceptance_ok = true;
  sweep_lock(
      "SpRWL",
      [](int threads) {
        sprwl::core::Config cfg;
        cfg.max_threads = threads;
        return std::make_unique<sprwl::core::SpRWLock>(cfg);
      },
      p, smoke, rows, acceptance_ok);
  sweep_lock(
      "TLE",
      [](int threads) {
        sprwl::locks::TLELock::Config cfg;
        cfg.max_threads = threads;
        return std::make_unique<sprwl::locks::TLELock>(cfg);
      },
      p, smoke, rows, acceptance_ok);
  sweep_lock(
      "RWL",
      [](int threads) {
        return std::make_unique<sprwl::locks::PosixRWLock>(threads);
      },
      p, smoke, rows, acceptance_ok);
  sweep_lock(
      "PhaseFair",
      [](int threads) {
        return std::make_unique<sprwl::locks::PhaseFairRWLock>(threads);
      },
      p, smoke, rows, acceptance_ok);

  std::printf("\n");
  print_rows(rows);
  write_json(rows, acceptance_ok, smoke);
  std::printf("acceptance: %s\n", acceptance_ok ? "OK" : "VIOLATED");
  return acceptance_ok ? 0 : 1;
}
