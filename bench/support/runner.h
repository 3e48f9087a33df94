// Parallel bench runner.
//
// Every benchmark data point — one (lock, thread-count, seed) combination —
// is an independent deterministic experiment: it builds its own Engine,
// data structure, lock and Simulator, and a Simulator's fibers all live on
// the OS thread that calls run(). Points therefore parallelize perfectly
// across OS threads, and the Runner exploits that while keeping the
// *output* of a bench binary byte-identical to a serial run:
//
//  * submit(compute, emit) queues one point. `compute` does the heavy work
//    and may run on any pool thread, concurrently with other computes; it
//    must only touch state it owns (captured by value / its own slot).
//  * `emit` publishes the result (prints the table row, appends JSON) and
//    runs on the draining thread, strictly in submission order, after every
//    compute finished. Output order is thus declaration order regardless of
//    which compute finished first.
//  * drain() is the barrier that runs everything; the destructor drains.
//    Code that mutates process-global configuration between batches (e.g.
//    the ablation benches rescaling g_costs) must drain() before mutating.
//
// The pool size comes from SPRWL_BENCH_JOBS (default: hardware
// concurrency); a value that is not a positive decimal integer exits with
// status 2. jobs=1 runs every compute inline on the calling thread in
// submission order — the serial baseline the determinism test compares
// against.
#pragma once

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sprwl::bench {

class Runner {
 public:
  using Fn = std::function<void()>;

  /// SPRWL_BENCH_JOBS if set, else hardware concurrency (at least 1). A
  /// set value that is not a positive decimal integer stops the bench with
  /// status 2 and a message naming it, as a malformed option does.
  static int jobs_from_env() {
    if (const char* env = std::getenv("SPRWL_BENCH_JOBS")) {
      const std::string v = env;
      if (!v.empty() && v.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        const unsigned long long n = std::strtoull(env, nullptr, 10);
        if (errno != ERANGE && n >= 1 && n <= INT_MAX) return static_cast<int>(n);
      }
      std::fprintf(stderr,
                   "bad SPRWL_BENCH_JOBS: %s (want a positive integer)\n", env);
      std::exit(2);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
  }

  /// jobs <= 0 means "use jobs_from_env()".
  explicit Runner(int jobs = 0) : jobs_(jobs >= 1 ? jobs : jobs_from_env()) {}

  ~Runner() { drain(); }
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  int jobs() const noexcept { return jobs_; }

  /// Queues one point. Either part may be empty: an emit-only task is how a
  /// bench interleaves section headers with rows in declaration order.
  void submit(Fn compute, Fn emit = {}) {
    pending_.push_back(Task{std::move(compute), std::move(emit), nullptr});
  }

  /// Like submit(), but measures the compute's WALL-clock time (host
  /// seconds, not virtual cycles) and hands it to the emit in milliseconds.
  /// Wall time is nondeterministic by nature, so emits that feed
  /// byte-identity comparisons must keep it out of the compared strings —
  /// report it in separate fields (the JSON `wall_ms` convention).
  void submit_timed(Fn compute, std::function<void(double)> emit) {
    auto wall_ms = std::make_shared<double>(0.0);
    submit(
        [wall_ms, compute = std::move(compute)] {
          const auto t0 = std::chrono::steady_clock::now();
          compute();
          const auto t1 = std::chrono::steady_clock::now();
          *wall_ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
        },
        emit ? Fn([wall_ms, emit = std::move(emit)] { emit(*wall_ms); })
             : Fn{});
  }

  /// Runs all queued computes (across the pool; the calling thread
  /// participates), then runs the emits in submission order. Rethrows the
  /// first failed compute (by submission order); no emits run in that case.
  void drain() {
    if (pending_.empty()) return;
    std::vector<Task> tasks;
    tasks.swap(pending_);

    if (jobs_ == 1) {
      for (Task& t : tasks) {
        if (t.compute) t.compute();
      }
    } else {
      std::atomic<std::size_t> next{0};
      auto worker = [&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= tasks.size()) return;
          Task& t = tasks[i];
          if (!t.compute) continue;
          try {
            t.compute();
          } catch (...) {
            t.error = std::current_exception();
          }
        }
      };
      std::vector<std::thread> pool;
      const std::size_t helpers =
          std::min<std::size_t>(static_cast<std::size_t>(jobs_ - 1), tasks.size());
      pool.reserve(helpers);
      for (std::size_t i = 0; i < helpers; ++i) pool.emplace_back(worker);
      worker();  // the draining thread is a pool member too
      for (std::thread& th : pool) th.join();
      for (const Task& t : tasks) {
        if (t.error) std::rethrow_exception(t.error);
      }
    }

    for (Task& t : tasks) {
      if (t.emit) t.emit();
    }
  }

 private:
  struct Task {
    Fn compute;
    Fn emit;
    std::exception_ptr error;
  };

  int jobs_;
  std::vector<Task> pending_;
};

}  // namespace sprwl::bench
