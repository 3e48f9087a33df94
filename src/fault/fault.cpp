#include "fault/fault.h"

#include <cstdlib>

namespace sprwl::fault {

namespace {

/// Uniform pick in [lo, hi] from a stream.
std::uint64_t pick(Rng& rng, std::uint64_t lo, std::uint64_t hi) {
  return rng.next_in(lo, hi);
}

}  // namespace

FaultPlan FaultPlan::chaos(std::uint64_t seed, int threads,
                           std::uint64_t horizon) {
  FaultPlan plan;
  plan.seed = seed;
  std::uint64_t sm = seed ^ 0xc4a7ba11dead5eedULL;
  Rng rng(splitmix64(sm));
  const auto t = static_cast<std::uint64_t>(threads);

  // Preemptions: a handful of bounded deschedules, biased toward reader
  // bodies — a reader frozen with its state flag raised is the adversarial
  // schedule for SpRWL's writers.
  const int n_preempts = static_cast<int>(pick(rng, 2, 6));
  for (int i = 0; i < n_preempts; ++i) {
    PreemptSpec s;
    // The second draw picks one of the six section points, kReadEnter..
    // kWriteExit.
    s.point = rng.next_bool(0.5)
                  ? SchedKind::kReadBody
                  : static_cast<SchedKind>(
                        static_cast<std::uint64_t>(SchedKind::kReadEnter) +
                        rng.next_below(6));
    s.tid = static_cast<int>(rng.next_below(t));
    s.not_before = pick(rng, 0, horizon / 2);
    s.duration = pick(rng, horizon / 64, horizon / 8);
    s.count = static_cast<int>(pick(rng, 1, 3));
    plan.preempts.push_back(s);
  }

  // Interrupt storm across a random sub-window, most of the time.
  if (rng.next_bool(0.7)) {
    plan.storm.from = pick(rng, 0, horizon / 2);
    plan.storm.until = plan.storm.from + pick(rng, horizon / 8, horizon / 2);
    plan.storm.peak_rate = 0.02 + 0.10 * rng.next_double();
  }

  // Capacity jitter, half the time.
  if (rng.next_bool(0.5)) {
    plan.jitter.from = pick(rng, 0, horizon / 2);
    plan.jitter.until = plan.jitter.from + pick(rng, horizon / 8, horizon / 2);
    plan.jitter.min_scale = 0.25;
    plan.jitter.max_scale = 1.0;
  }

  // One reader that keeps issuing syscalls inside its section for a while.
  if (rng.next_bool(0.5)) {
    SyscallSpec s;
    s.point = SchedKind::kReadBody;
    s.tid = static_cast<int>(rng.next_below(t));
    s.from = pick(rng, 0, horizon / 2);
    s.until = s.from + pick(rng, horizon / 8, horizon / 2);
    s.cost = pick(rng, 500, 3'000);
    plan.syscalls.push_back(s);
  }
  return plan;
}

FaultPlan FaultPlan::chaos_nodes(std::uint64_t seed, std::uint64_t horizon,
                                 const sim::Topology& topo) {
  FaultPlan plan;
  plan.seed = seed;
  plan.topology = topo;
  std::uint64_t sm = seed ^ 0xd15717eadbeefca5ULL;
  Rng rng(splitmix64(sm));
  const auto nodes = static_cast<std::uint64_t>(topo.nodes < 1 ? 1 : topo.nodes);

  // One node crash-stops somewhere in the first half of the run, leaving
  // its lease (if it holds one) to expire and its payloads possibly torn.
  NodeCrashSpec crash;
  crash.node = static_cast<int>(rng.next_below(nodes));
  crash.at = pick(rng, horizon / 8, horizon / 2);
  plan.crashes.push_back(crash);

  // Usually also a partition against a *different* node: its renewal
  // traffic stalls long enough to lose the lease, exercising the
  // stale-holder fence rather than the crash path.
  if (nodes > 1 && rng.next_bool(0.7)) {
    PartitionSpec part;
    part.node = static_cast<int>((static_cast<std::uint64_t>(crash.node) + 1 +
                                  rng.next_below(nodes - 1)) %
                                 nodes);
    part.from = pick(rng, 0, horizon / 2);
    part.until = part.from + pick(rng, horizon / 8, horizon / 3);
    plan.partitions.push_back(part);
  }

  // A few preemptions aimed at the lease windows so renew/expire decisions
  // interleave with reads and writes in flight.
  const int n_preempts = static_cast<int>(pick(rng, 1, 3));
  for (int i = 0; i < n_preempts; ++i) {
    PreemptSpec s;
    s.point = rng.next_bool(0.5) ? SchedKind::kLeaseRenew
                                 : SchedKind::kLeaseExpire;
    s.tid = -1;
    s.not_before = pick(rng, 0, horizon / 2);
    s.duration = pick(rng, horizon / 64, horizon / 16);
    s.count = static_cast<int>(pick(rng, 1, 2));
    plan.preempts.push_back(s);
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, sim::Simulator* sim,
                             htm::Engine* engine)
    : plan_(std::move(plan)), sim_(sim), engine_(engine) {
  const int n = engine_ != nullptr ? engine_->config().max_threads : 256;
  rngs_.reserve(static_cast<std::size_t>(n));
  std::uint64_t sm = plan_.seed ^ 0xfa5151dec0ffee11ULL;
  for (int i = 0; i < n; ++i) rngs_.emplace_back(splitmix64(sm));
  if (engine_ != nullptr) base_rate_ = engine_->spurious_abort_rate();
  jittered_.assign(static_cast<std::size_t>(n), false);
  crashed_.assign(
      static_cast<std::size_t>(plan_.topology.nodes < 1 ? 1
                                                        : plan_.topology.nodes),
      false);
}

void FaultInjector::apply_storm(std::uint64_t now) {
  const AbortStormSpec& s = plan_.storm;
  if (engine_ == nullptr || s.until <= s.from || s.peak_rate <= 0.0) return;
  double rate = base_rate_;
  if (now >= s.from && now < s.until) {
    const double x = static_cast<double>(now - s.from) /
                     static_cast<double>(s.until - s.from);
    rate += s.peak_rate * (x < 0.5 ? 2.0 * x : 2.0 * (1.0 - x));
  }
  if (rate != applied_rate_) {
    engine_->set_spurious_abort_rate(rate);
    applied_rate_ = rate;
    if (rate > stats_.peak_applied_rate) stats_.peak_applied_rate = rate;
  }
}

void FaultInjector::apply_jitter(std::uint64_t now, int tid) {
  const CapacityJitterSpec& j = plan_.jitter;
  if (engine_ == nullptr || j.until <= j.from) return;
  if (tid < 0 || tid >= static_cast<int>(rngs_.size())) return;
  const htm::CapacityProfile base = engine_->config().capacity;
  const auto idx = static_cast<std::size_t>(tid);
  if (now >= j.from && now < j.until) {
    const double scale =
        j.min_scale + (j.max_scale - j.min_scale) * rngs_[idx].next_double();
    const auto scaled = [scale](std::uint32_t lines) {
      const double s = static_cast<double>(lines) * scale;
      return s < 1.0 ? 1u : static_cast<std::uint32_t>(s);
    };
    engine_->set_thread_capacity(tid, scaled(base.read_lines),
                                 scaled(base.write_lines));
    jittered_[idx] = true;
    ++stats_.capacity_jitters;
  } else if (jittered_[idx]) {
    engine_->set_thread_capacity(tid, base.read_lines, base.write_lines);
    jittered_[idx] = false;
  }
}

bool FaultInjector::apply_preempts(SchedKind p, std::uint64_t now, int tid) {
  for (PreemptSpec& s : plan_.preempts) {
    if (s.count <= 0 || s.point != p) continue;
    if (s.tid != -1 && s.tid != tid) continue;
    if (now < s.not_before) continue;
    --s.count;
    ++stats_.preemptions;
    trace::emit(trace::Event::kFaultPreempt,
                static_cast<std::uint32_t>(
                    s.duration > 0xffffffffULL ? 0xffffffffULL : s.duration));
    if (sim_ != nullptr) sim_->deschedule_current_until(now + s.duration);
    // A context switch kills any in-flight transaction (best-effort HTM);
    // the abort unwinds to the enclosing try_transaction like any other.
    if (engine_ != nullptr && engine_->in_tx()) {
      throw htm::AbortException(htm::AbortCause::kSpurious, 0);
    }
    return true;
  }
  return false;
}

void FaultInjector::apply_syscalls(SchedKind p, std::uint64_t now, int tid) {
  for (const SyscallSpec& s : plan_.syscalls) {
    if (s.point != p) continue;
    if (s.tid != -1 && s.tid != tid) continue;
    if (now < s.from || now >= s.until) continue;
    ++stats_.syscalls;
    trace::emit(trace::Event::kFaultSyscall);
    if (engine_ != nullptr) {
      engine_->syscall(s.cost);  // aborts the enclosing transaction, if any
    } else {
      platform::advance(s.cost);
    }
    return;
  }
}

void FaultInjector::apply_crashes(std::uint64_t now, int tid) {
  if (plan_.crashes.empty() || tid < 0) return;
  const int node = plan_.topology.node_of(tid);
  for (NodeCrashSpec& s : plan_.crashes) {
    if (s.fired || s.node != node || now < s.at) continue;
    s.fired = true;
    ++stats_.node_crashes;
    if (s.node >= 0 && s.node < static_cast<int>(crashed_.size())) {
      crashed_[static_cast<std::size_t>(s.node)] = true;
    }
  }
  if (!node_is_crashed(node)) return;
  // Crash-stop: the fiber dies here — but never from inside a transaction.
  // A context switch on real hardware would abort the transaction first and
  // leave memory at its pre-transaction state; modelling that as an abort
  // lets the engine unwind cleanly, and the fiber dies at the retry path's
  // next (non-transactional) checkpoint.
  if (engine_ != nullptr && engine_->in_tx()) {
    throw htm::AbortException(htm::AbortCause::kSpurious, 0);
  }
  ++stats_.crash_kills;
  throw NodeCrashed{node};
}

std::uint64_t FaultInjector::partition_heal_time(int node,
                                                 std::uint64_t now) noexcept {
  for (const PartitionSpec& s : plan_.partitions) {
    if (s.node != node || s.until <= s.from) continue;
    if (now >= s.from && now < s.until) {
      ++stats_.partition_stalls;
      return s.until;
    }
  }
  return 0;
}

void FaultInjector::on_point(SchedKind p) {
  const std::uint64_t now = platform::now();
  const int tid = platform::thread_id();
  apply_storm(now);
  apply_jitter(now, tid);
  apply_crashes(now, tid);
  apply_preempts(p, now, tid);
  apply_syscalls(p, now, tid);
}

std::uint64_t env_seed(std::uint64_t fallback) {
  const char* s = std::getenv("SPRWL_SEED");
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0' ? v : fallback;
}

}  // namespace sprwl::fault
