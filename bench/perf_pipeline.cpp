// Perf trajectory of the evaluation pipeline itself: times the fig3+fig4
// point set (the core hash-map suites) twice and writes BENCH_perf.json —
//
//   serial_new    jobs=1;
//   parallel_new  SPRWL_BENCH_JOBS (default: hardware concurrency) pool
//                 over the same points.
//
// Besides the wall-clock trajectory (points/sec, context switches/sec) it
// byte-compares the two runs' bench output and fails if they differ — the
// parallel runner must not change a single byte.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/support/fig34_suites.h"
#include "bench/support/json.h"

namespace sprwl::bench {
namespace {

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
  std::printf("%-12s  jobs=%-3d  %8.2fs  %6.2f points/s  %11.3e switches/s\n",
              r.name.c_str(), r.jobs, r.wall_s, r.points_per_sec(),
              r.switches_per_sec());
  std::fflush(stdout);
  return r;
}

int run(const Args& args) {
  const int par_jobs = Runner::jobs_from_env();
  std::printf(
      "perf_pipeline — fig3+fig4 suite wall-clock (SPRWL_BENCH_JOBS=%d)\n",
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
    j.end_object();
  }
  j.end_array();
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
