// Perf trajectory of the evaluation pipeline itself: times the fig3+fig4
// point set (the core hash-map suites) twice and writes BENCH_perf.json —
//
//   serial_new    jobs=1;
//   parallel_new  SPRWL_BENCH_JOBS (default: hardware concurrency) pool
//                 over the same points.
//
// Besides the wall-clock trajectory (points/sec, context switches/sec and
// host ns per switch, the simulator's inner loop) it byte-compares the two
// runs' bench output and fails if they differ — the parallel runner must
// not change a single byte.
//
// First it times the library's constant factors on one real thread (no
// simulator): an uncontended read and write of every lock, an empty HTM
// commit, an HTM read-modify-write of one word, an uninstrumented Shared
// load and a SNZI arrive/depart pair. Each prints the median ns/op over
// kMicroReps timed batches.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/support/fig34_suites.h"
#include "bench/support/json.h"
#include "common/platform.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "locks/brlock.h"
#include "locks/passive_rwlock.h"
#include "locks/phase_fair.h"
#include "locks/posix_rwlock.h"
#include "locks/rwle.h"
#include "locks/tle.h"
#include "snzi/snzi.h"

namespace sprwl::bench {
namespace {

// --- host cost per operation, one real thread ------------------------------

constexpr int kMicroThreads = 8;
constexpr int kMicroReps = 11;
constexpr int kMicroBatch = 20000;

struct MicroResult {
  std::string name;
  double ns_per_op = 0;
};

// Loop results land here, so no timed body is dead code.
volatile std::uint64_t g_sink = 0;

/// Median over kMicroReps batches of kMicroBatch calls of `op`, in ns/op.
template <class Op>
double median_ns_per_op(Op&& op) {
  for (int i = 0; i < kMicroBatch; ++i) op();  // warm caches and branches
  std::vector<double> ns;
  for (int r = 0; r < kMicroReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMicroBatch; ++i) op();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 kMicroBatch);
  }
  std::nth_element(ns.begin(), ns.begin() + kMicroReps / 2, ns.end());
  return ns[kMicroReps / 2];
}

/// Uncontended read (one load) and write (load + store) sections.
template <class Lock>
void lock_ops(const char* name, Lock& lock, std::vector<MicroResult>& out) {
  htm::Shared<std::uint64_t> cell(7);
  std::uint64_t sink = 0;
  out.push_back({std::string("read/") + name, median_ns_per_op([&] {
                   lock.read(0, [&] { sink += cell.load(); });
                 })});
  out.push_back({std::string("write/") + name, median_ns_per_op([&] {
                   lock.write(1, [&] { cell.store(cell.load() + 1); });
                 })});
  g_sink = sink;
}

std::vector<MicroResult> micro_ops() {
  htm::EngineConfig ec;
  ec.max_threads = kMicroThreads;
  htm::Engine engine(ec);
  htm::EngineScope scope(engine);
  ThreadIdScope tid(0);
  std::vector<MicroResult> out;
  {
    locks::PosixRWLock lock(kMicroThreads);
    lock_ops("RWL", lock, out);
  }
  {
    locks::BRLock lock(kMicroThreads);
    lock_ops("BRLock", lock, out);
  }
  {
    locks::PhaseFairRWLock lock(kMicroThreads);
    lock_ops("PhaseFair", lock, out);
  }
  {
    locks::PassiveRWLock lock(kMicroThreads);
    lock_ops("PRWL", lock, out);
  }
  {
    locks::TLELock lock(locks::TLELock::Config{.max_threads = kMicroThreads});
    lock_ops("TLE", lock, out);
  }
  {
    locks::RWLELock::Config cfg;
    cfg.max_threads = kMicroThreads;
    locks::RWLELock lock(cfg);
    lock_ops("RW-LE", lock, out);
  }
  {
    core::SpRWLock lock(
        core::Config::variant(core::SchedulingVariant::kFull, kMicroThreads));
    lock_ops("SpRWL", lock, out);
  }
  out.push_back({"htm/commit_empty", median_ns_per_op([&] {
                   g_sink = engine.try_transaction([] {}).committed();
                 })});
  htm::Shared<std::uint64_t> word(0);
  out.push_back({"htm/read_write_word", median_ns_per_op([&] {
                   engine.try_transaction([&] { word.store(word.load() + 1); });
                 })});
  std::uint64_t sink = 0;
  out.push_back({"shared/uninstrumented_load",
                 median_ns_per_op([&] { sink += word.load(); })});
  g_sink = sink;
  snzi::Snzi snzi(snzi::Snzi::Config{3});
  out.push_back({"snzi/arrive_depart", median_ns_per_op([&] {
                   snzi.arrive(0);
                   snzi.depart(0);
                 })});
  for (const MicroResult& m : out) {
    std::printf("  %-28s %8.1f ns/op\n", m.name.c_str(), m.ns_per_op);
  }
  std::fflush(stdout);
  return out;
}

// --- the fig3+fig4 pipeline ------------------------------------------------

struct ModeResult {
  std::string name;
  int jobs = 1;
  double wall_s = 0;
  std::uint64_t points = 0;
  std::uint64_t switches = 0;
  std::uint64_t direct_switches = 0;
  std::string output;

  double points_per_sec() const { return wall_s > 0 ? points / wall_s : 0; }
  double switches_per_sec() const {
    return wall_s > 0 ? static_cast<double>(switches) / wall_s : 0;
  }
  /// Host time a worker spends per fiber switch: wall time x jobs /
  /// switches, points' set-up included. In these suites nearly every
  /// charged access switches, so this is the simulator's inner-loop cost.
  double host_ns_per_switch() const {
    return switches > 0 ? wall_s * jobs * 1e9 / static_cast<double>(switches)
                        : 0;
  }
};

ModeResult run_mode(const char* name, int jobs, const Args& args) {
  ModeResult r;
  r.name = name;
  r.jobs = jobs;
  SeriesOptions opt;
  opt.out = [&r](const std::string& s) { r.output += s; };
  opt.observe = [&r](const workloads::RunResult& run) {
    ++r.points;
    r.switches += run.sim_stats.switches;
    r.direct_switches += run.sim_stats.direct_switches;
  };
  const auto t0 = std::chrono::steady_clock::now();
  {
    Runner runner(jobs);
    fig3_suite(runner, args, opt);
    fig4_suite(runner, args, opt);
    runner.drain();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  std::printf(
      "%-12s  jobs=%-3d  %8.2fs  %6.2f points/s  %11.3e switches/s  "
      "%6.1f host ns/switch\n",
      r.name.c_str(), r.jobs, r.wall_s, r.points_per_sec(),
      r.switches_per_sec(), r.host_ns_per_switch());
  std::fflush(stdout);
  return r;
}

int run(const Args& args) {
  const int par_jobs = Runner::jobs_from_env();
  std::printf("perf_pipeline — host ns per operation, one real thread\n");
  const std::vector<MicroResult> micro = micro_ops();
  std::printf(
      "\nperf_pipeline — fig3+fig4 suite wall-clock (SPRWL_BENCH_JOBS=%d)\n",
      par_jobs);
  std::fflush(stdout);

  const std::vector<ModeResult> modes{run_mode("serial_new", 1, args),
                                      run_mode("parallel_new", par_jobs, args)};
  const ModeResult& serial = modes[0];
  const ModeResult& parallel = modes[1];
  const bool identical = serial.output == parallel.output;

  std::printf("\nparallel speedup (parallel_new vs serial_new): %.2fx\n",
              parallel.wall_s > 0 ? serial.wall_s / parallel.wall_s : 0);
  std::printf("serial/parallel output byte-identical:         %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");

  JsonWriter j;
  j.begin_object();
  j.key("bench").value("perf_pipeline");
  j.key("suite").value("fig3+fig4");
  j.key("jobs").value(par_jobs);
  j.key("hw_concurrency")
      .value(static_cast<int>(std::thread::hardware_concurrency()));
  j.key("modes").begin_array();
  for (const ModeResult& m : modes) {
    j.begin_object();
    j.key("name").value(m.name);
    j.key("jobs").value(m.jobs);
    j.key("wall_seconds").value(m.wall_s);
    j.key("points").value(m.points);
    j.key("points_per_sec").value(m.points_per_sec());
    j.key("switches").value(m.switches);
    j.key("direct_switches").value(m.direct_switches);
    j.key("switches_per_sec").value(m.switches_per_sec());
    j.key("host_ns_per_switch").value(m.host_ns_per_switch());
    j.end_object();
  }
  j.end_array();
  j.key("micro_ns_per_op").begin_object();
  for (const MicroResult& m : micro) j.key(m.name.c_str()).value(m.ns_per_op);
  j.end_object();
  j.key("outputs_identical").value(identical);
  j.end_object();
  if (!j.write_file("BENCH_perf.json")) {
    std::fprintf(stderr, "failed to write BENCH_perf.json\n");
    return 2;
  }
  std::printf("wrote BENCH_perf.json\n");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace sprwl::bench

int main(int argc, char** argv) {
  return sprwl::bench::run(sprwl::bench::Args::parse(argc, argv));
}
