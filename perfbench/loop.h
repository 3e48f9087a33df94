// The benchmark's closed loop and its outside-in tracing.
//
// Every simulated thread claims operations from one shared budget until it
// is spent, so all threads finish within one operation of each other and a
// phase always does the same amount of work, however fast the modelled lock
// is. Each lock call goes through Loop::call, which times it in virtual
// cycles. With tracing on it also records a span around the call and a
// child span around every execution of the critical-section body: the lock
// re-runs the body after an HTM abort, so the last child is the committed
// attempt and the earlier ones are wasted work. platform::now() charges no
// cycles and spans live in memory, so tracing never moves a virtual cycle.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/costs.h"
#include "common/platform.h"
#include "common/rng.h"
#include "htm/engine.h"
#include "sim/simulator.h"

namespace perfbench {

enum Kind : std::uint8_t { kRead = 0, kWrite = 1 };

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

/// One traced interval on a simulated thread, in virtual cycles. An op span
/// (parent == kNoParent) covers a whole read()/write() call; an attempt span
/// covers one execution of the body and points at its op span.
struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t parent = kNoParent;
  Kind kind = kRead;
  std::uint8_t type = 0;  ///< workload-specific operation type
};

struct ThreadLog {
  std::vector<std::uint64_t> latency[2];  ///< call latency by Kind, in order
  std::uint64_t ops = 0;
  std::uint64_t inside = 0;  ///< cycles spent inside lock calls
  std::uint64_t start = 0;   ///< virtual clock when the thread began
  std::uint64_t end = 0;     ///< ... and when it ran out of operations
  std::vector<Span> spans;   ///< traced runs only
};

/// Ends an attempt span when the body returns or an HTM abort unwinds it.
class AttemptScope {
 public:
  AttemptScope(std::vector<Span>& spans, std::uint32_t parent)
      : spans_(spans), index_(spans.size()) {
    const Span& op = spans[parent];
    spans.push_back(Span{sprwl::platform::now(), 0, parent, op.kind, op.type});
  }
  ~AttemptScope() { spans_[index_].end = sprwl::platform::now(); }
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

 private:
  std::vector<Span>& spans_;
  std::size_t index_;
};

class Loop {
 public:
  Loop(int threads, std::uint64_t ops, bool trace)
      : logs(static_cast<std::size_t>(threads)), budget_(ops), trace_(trace) {
    if (!trace || threads <= 0) return;
    // Room for an op span and three attempts per operation, and at least
    // 192 KiB, so the buffers come from mmap and rarely grow mid-phase
    // (see main() in perfbench.cpp on why the heap must stay untouched).
    const std::uint64_t per_thread = 4 * ops / static_cast<std::uint64_t>(threads);
    for (ThreadLog& log : logs) {
      log.spans.reserve(std::max<std::uint64_t>(per_thread, 8192));
    }
  }

  /// Claims the next operation of the shared budget. Fibers share one OS
  /// thread and this never yields, so a plain counter is race-free.
  bool claim() {
    if (claimed_ >= budget_) return false;
    ++claimed_;
    return true;
  }

  /// One timed lock call: lock.read(cs, body) or lock.write(cs, body).
  template <class Lock, class Body>
  void call(int tid, Lock& lock, Kind kind, int cs, std::uint8_t type,
            Body&& body) {
    ThreadLog& log = logs[static_cast<std::size_t>(tid)];
    const std::uint64_t t0 = sprwl::platform::now();
    if (trace_) {
      const auto op = static_cast<std::uint32_t>(log.spans.size());
      log.spans.push_back(Span{t0, 0, kNoParent, kind, type});
      auto attempt = [&] {
        AttemptScope scope(log.spans, op);
        body();
      };
      invoke(lock, kind, cs, attempt);
      log.spans[op].end = sprwl::platform::now();
    } else {
      invoke(lock, kind, cs, body);
    }
    const std::uint64_t dt = sprwl::platform::now() - t0;
    log.latency[kind].push_back(dt);
    log.inside += dt;
    ++log.ops;
  }

  std::vector<ThreadLog> logs;

 private:
  template <class Lock, class Body>
  static void invoke(Lock& lock, Kind kind, int cs, Body& body) {
    if (kind == kRead) {
      lock.read(cs, body);
    } else {
      lock.write(cs, body);
    }
  }

  std::uint64_t budget_;
  std::uint64_t claimed_ = 0;
  bool trace_;
};

struct PhaseResult {
  Loop loop;
  double host_s = 0;
  std::uint64_t final_time = 0;
  sprwl::sim::SimStats sim;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `ops` operations of `op(loop, tid, rng)` on `threads` fibers, with
/// g_costs.local_work of private work between a thread's operations. Host
/// time covers sim.run only.
template <class Op>
PhaseResult run_phase(sprwl::sim::Simulator& sim, sprwl::htm::Engine& engine,
                      int threads, std::uint64_t ops, std::uint64_t rng_seed,
                      bool trace, Op&& op) {
  PhaseResult r{Loop(threads, ops, trace), 0, 0, {}};
  Loop& loop = r.loop;
  sprwl::htm::EngineScope scope(engine);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run(threads, [&](int tid) {
    sprwl::Rng rng(rng_seed * 0x9e3779b97f4a7c15ULL +
                   static_cast<std::uint64_t>(tid));
    ThreadLog& log = loop.logs[static_cast<std::size_t>(tid)];
    log.start = sprwl::platform::now();
    while (loop.claim()) {
      op(loop, tid, rng);
      sprwl::platform::advance(sprwl::g_costs.local_work);
    }
    log.end = sprwl::platform::now();
  });
  r.host_s = seconds_since(t0);
  r.final_time = sim.final_time();
  r.sim = sim.stats();
  return r;
}

}  // namespace perfbench
