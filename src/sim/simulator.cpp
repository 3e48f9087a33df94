#include "sim/simulator.h"

#include <algorithm>
#include <cstring>
#include <cxxabi.h>
#include <exception>
#include <queue>
#include <thread>

#include "common/costs.h"

#if defined(__SANITIZE_ADDRESS__)
#define SPRWL_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPRWL_ASAN_FIBERS 1
#endif
#endif
#ifndef SPRWL_ASAN_FIBERS
#define SPRWL_ASAN_FIBERS 0
#endif

#if SPRWL_ASAN_FIBERS
// AddressSanitizer must be told about every stack switch, or it attributes
// fiber frames to the OS thread's stack and reports false positives (and
// cannot detect genuine fiber-stack overflows).
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save,
                                    const void* stack_bottom,
                                    std::size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** stack_bottom_old,
                                     std::size_t* stack_size_old);
}
#endif

#if defined(__x86_64__)
#define SPRWL_FAST_FIBERS 1
extern "C" {
// Defined in fiber_switch.S.
void sprwl_ctx_switch(void** save_rsp, void* restore_rsp);
void sprwl_fiber_entry();
// First C++ frame of a fresh fiber; referenced from fiber_switch.S.
void sprwl_fiber_main();
}
#else
#define SPRWL_FAST_FIBERS 0
#include <ucontext.h>
#endif

namespace sprwl::sim {
namespace {

// Every fiber shares one OS thread and therefore, by default, one
// __cxa_eh_globals — libstdc++'s per-thread stack of in-flight exception
// objects. That breaks as soon as a fiber yields while an exception is
// alive: the HTM engine charges the abort penalty (which can yield) inside
// its `catch (const AbortException&)` handler, so two fibers can be inside
// catch blocks concurrently. Their __cxa_end_catch calls then pop each
// other's exception objects off the shared list, freeing an exception
// another fiber is still reading (a genuine use-after-free, found by ASan).
// The cure is to give each execution context a private copy of the
// structure, swapped at every switch. Its Itanium-ABI layout is stable:
// { __cxa_exception* caughtExceptions; unsigned int uncaughtExceptions; },
// which two pointer-sized words cover on LP64 and ILP32 alike.
constexpr std::size_t kEhStateBytes = 2 * sizeof(void*);

// `live` is the OS thread's structure (Simulator::eh_globals_).
void eh_switch(unsigned char* live, unsigned char* save_to,
               const unsigned char* restore_from) {
  std::memcpy(save_to, live, kEhStateBytes);
  std::memcpy(live, restore_from, kEhStateBytes);
}

// Thread-local fiber stack pool: every bench data point spins up its own
// Simulator (often dozens of fibers), and a fresh make_unique<char[]>
// zero-initializes the whole 256 KB stack — ~14 MB of memset per 56-fiber
// run, repeated per point. Recycling keeps the stacks warm and skips the
// zeroing (fibers fully initialize every frame they use; recycled garbage
// is unobservable, so determinism is unaffected). Pool access is
// single-threaded by construction: a Simulator's run() executes entirely
// on one OS thread.
struct StackPool {
  std::size_t bytes = 0;
  std::vector<std::unique_ptr<char[]>> free_list;
};
thread_local StackPool t_stack_pool;
constexpr std::size_t kMaxPooledStacks = 128;

std::unique_ptr<char[]> acquire_stack(std::size_t bytes) {
  StackPool& pool = t_stack_pool;
  if (pool.bytes == bytes && !pool.free_list.empty()) {
    std::unique_ptr<char[]> s = std::move(pool.free_list.back());
    pool.free_list.pop_back();
    return s;
  }
  return std::unique_ptr<char[]>(new char[bytes]);  // uninitialized
}

void release_stack(std::size_t bytes, std::unique_ptr<char[]> s) {
  StackPool& pool = t_stack_pool;
  if (pool.bytes != bytes) {
    pool.free_list.clear();  // size changed: the old stacks are useless
    pool.bytes = bytes;
  }
  if (pool.free_list.size() < kMaxPooledStacks) {
    pool.free_list.push_back(std::move(s));
  }
}

}  // namespace

struct Simulator::FiberContext final : ExecutionContext {
  Simulator* sim = nullptr;
  Fiber* fiber = nullptr;

  std::uint64_t now() override;
  void advance(std::uint64_t cycles) override;
  void pause() override;
  void wait_until(std::uint64_t t) override;
  int thread_id() override;
  void sched_point(SchedKind kind, std::uintptr_t obj) override;
  void enable_sched_points(bool on) noexcept { sched_points_ = on; }
};

struct Simulator::Fiber {
  std::unique_ptr<char[]> stack;
  std::uint64_t time = 0;
  std::uint32_t jitter = 0;  // per-fiber LCG state for pause jitter
  bool done = false;
  int id = 0;
  Simulator* sim = nullptr;
  std::exception_ptr error;
  FiberContext exec_ctx;
  // Controlled-mode bookkeeping.
  PendingOp pending;               // where this fiber is parked
  std::uint64_t pause_stamp = 0;   // progress_ epoch observed at last pause
  std::uint64_t recheck_round = 0; // last verification round it was re-run in
  bool started = false;            // body entered at least once
  bool cancelling = false;         // RunCancelled already thrown into it
  // Private __cxa_eh_globals while descheduled (zero = no live exceptions).
  unsigned char eh_state[kEhStateBytes] = {};
  void* fake_stack = nullptr;  // ASan fiber bookkeeping (unused otherwise)
#if SPRWL_FAST_FIBERS
  void* rsp = nullptr;
#else
  ucontext_t ctx{};
#endif
};

// The fiber being switched into for the first time; consumed by the entry
// thunk. One scheduler runs per OS thread, hence thread_local.
thread_local Simulator::Fiber* t_entering_fiber = nullptr;

std::uint64_t Simulator::FiberContext::now() { return fiber->time; }
void Simulator::FiberContext::advance(std::uint64_t cycles) {
  sim->fiber_advance(*fiber, cycles);
}
void Simulator::FiberContext::pause() {
  if (sim->controlled_ && fiber->cancelling) {
    // Unwinding a cancelled run: park without charging time (no
    // SimTimeLimitError may fire while a destructor is mid-unwind).
    sim->controlled_point(SchedKind::kPause, 0);
    return;
  }
  // Spin iterations on real hardware never take exactly the same number of
  // cycles; a deterministic simulator without jitter can lock coupled spin
  // loops into a *permanent* periodic schedule (e.g. a reader whose
  // re-check cadence never aligns with the gaps of an SGL writer convoy —
  // a starvation the paper acknowledges as transient on real machines).
  // A small per-fiber pseudo-random perturbation (deterministic given the
  // run) breaks such lockstep without affecting costs materially.
  fiber->jitter = fiber->jitter * 1664525u + 1013904223u;
  sim->fiber_advance(*fiber, g_costs.pause + (fiber->jitter >> 28));
  if (sim->controlled_) sim->controlled_point(SchedKind::kPause, 0);
}
void Simulator::FiberContext::wait_until(std::uint64_t t) {
  if (sim->controlled_ && fiber->cancelling) {
    sim->controlled_point(SchedKind::kTimedWait, 0);
    return;
  }
  sim->fiber_wait_until(*fiber, t);
  if (sim->controlled_) sim->controlled_point(SchedKind::kTimedWait, 0);
}
int Simulator::FiberContext::thread_id() { return fiber->id; }
void Simulator::FiberContext::sched_point(SchedKind kind, std::uintptr_t obj) {
  sim->controlled_point(kind, obj);
}

Simulator::Simulator(SimConfig cfg) : cfg_(cfg) {
#if !SPRWL_FAST_FIBERS
  main_ctx_ = new ucontext_t{};
#endif
}

Simulator::~Simulator() {
#if !SPRWL_FAST_FIBERS
  delete static_cast<ucontext_t*>(main_ctx_);
#endif
}

// --- context switching ------------------------------------------------------

void Simulator::fiber_body(Fiber& f) {
#if SPRWL_ASAN_FIBERS
  // First activation of this fiber: complete the switch whoever started
  // it began. The origin stack bounds are the scheduler's only when the
  // activation came from schedule_loop — under direct switching it can be
  // another fiber, whose bounds must not overwrite the scheduler's.
  {
    const void* from_bottom = nullptr;
    std::size_t from_size = 0;
    __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
    if (f.sim->from_scheduler_) {
      f.sim->sched_stack_bottom_ = from_bottom;
      f.sim->sched_stack_size_ = from_size;
    }
  }
#endif
  try {
    (*f.sim->body_)(f.id);
  } catch (const RunCancelled&) {
    // Controlled run abandoned: the fiber unwound cleanly, no error.
  } catch (...) {
    f.error = std::current_exception();
  }
  f.done = true;
}

#if SPRWL_FAST_FIBERS

void Simulator::switch_to_fiber(Fiber& f) {
  t_entering_fiber = &f;  // consumed only on a fiber's first activation
  from_scheduler_ = true;
  eh_switch(eh_globals_, sched_eh_state_, f.eh_state);
#if SPRWL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&sched_fake_stack_, f.stack.get(),
                                 cfg_.stack_bytes);
#endif
  sprwl_ctx_switch(&sched_rsp_, f.rsp);
#if SPRWL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(sched_fake_stack_, nullptr, nullptr);
#endif
}

void Simulator::yield_to_scheduler(Fiber& f) {
  eh_switch(eh_globals_, f.eh_state, sched_eh_state_);
#if SPRWL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&f.fake_stack, sched_stack_bottom_,
                                 sched_stack_size_);
#endif
  sprwl_ctx_switch(&f.rsp, sched_rsp_);
#if SPRWL_ASAN_FIBERS
  // Resumed: whoever switched back to us finished their half.
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void Simulator::exit_fiber(Fiber& f) {
  // Permanently hand control back to the scheduler; the save slot is dead.
  eh_switch(f.sim->eh_globals_, f.eh_state, f.sim->sched_eh_state_);
#if SPRWL_ASAN_FIBERS
  // Null save slot: the fiber is dying, let ASan destroy its fake stack.
  __sanitizer_start_switch_fiber(nullptr, f.sim->sched_stack_bottom_,
                                 f.sim->sched_stack_size_);
#endif
  sprwl_ctx_switch(&f.rsp, f.sim->sched_rsp_);
}

void Simulator::prepare_fiber(Fiber& f) {
  // Stack layout (from the top): [entry address][6 callee-saved slots].
  // sprwl_ctx_switch pops the six slots, then `ret` enters
  // sprwl_fiber_entry with rsp 16-byte aligned.
  auto top = reinterpret_cast<std::uintptr_t>(f.stack.get()) + cfg_.stack_bytes;
  top &= ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<void**>(top);
  *--sp = reinterpret_cast<void*>(&sprwl_fiber_entry);
  for (int i = 0; i < 6; ++i) *--sp = nullptr;
  f.rsp = sp;
}

#else  // portable ucontext fallback

void Simulator::switch_to_fiber(Fiber& f) {
  t_entering_fiber = &f;
  from_scheduler_ = true;
  eh_switch(eh_globals_, sched_eh_state_, f.eh_state);
#if SPRWL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&sched_fake_stack_, f.stack.get(),
                                 cfg_.stack_bytes);
#endif
  swapcontext(static_cast<ucontext_t*>(main_ctx_), &f.ctx);
#if SPRWL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(sched_fake_stack_, nullptr, nullptr);
#endif
}

void Simulator::yield_to_scheduler(Fiber& f) {
  eh_switch(eh_globals_, f.eh_state, sched_eh_state_);
#if SPRWL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&f.fake_stack, sched_stack_bottom_,
                                 sched_stack_size_);
#endif
  swapcontext(&f.ctx, static_cast<ucontext_t*>(main_ctx_));
#if SPRWL_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void Simulator::exit_fiber(Fiber& f) {
  // The actual switch happens via uc_link when the trampoline falls off;
  // restore the scheduler's exception state (and tell ASan the fiber's
  // stack is dying) just before that.
  eh_switch(f.sim->eh_globals_, f.eh_state, f.sim->sched_eh_state_);
#if SPRWL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(nullptr, f.sim->sched_stack_bottom_,
                                 f.sim->sched_stack_size_);
#endif
}

namespace {
void ucontext_trampoline() {
  Simulator::Fiber* f = t_entering_fiber;
  t_entering_fiber = nullptr;
  Simulator::fiber_body(*f);
  Simulator::exit_fiber(*f);
  // Falling off returns to uc_link (the scheduler's main context).
}
}  // namespace

void Simulator::prepare_fiber(Fiber& f) {
  getcontext(&f.ctx);
  f.ctx.uc_stack.ss_sp = f.stack.get();
  f.ctx.uc_stack.ss_size = cfg_.stack_bytes;
  f.ctx.uc_link = static_cast<ucontext_t*>(main_ctx_);
  makecontext(&f.ctx, &ucontext_trampoline, 0);
}

#endif

// Fiber→fiber handoff: the yielding fiber f re-queues itself, takes the
// ready-set minimum m and switches straight to m's stack — the scheduler
// stack is not touched, halving the context switches of a yield. Schedule
// equivalence with the trampoline: f yields only because f.time >
// next_wake_ (the minimum's time), so f's key exceeds the minimum, and
// taking the minimum before inserting f selects exactly the entry the
// trampoline's insert-then-pop would have returned (never f itself).
void Simulator::direct_switch_from(Fiber& f) {
  const std::uint64_t e = ready_pop();
  ready_push(ReadySet::key(f.time, f.id));
  Fiber& m = *fibers_[static_cast<std::size_t>(ReadySet::id_of(e))];
  next_wake_ = ReadySet::time_of(ready_.top());  // non-empty: f is queued
  running_ = &m;
  platform::set_context(&m.exec_ctx);
  ++stats_.switches;
  ++stats_.direct_switches;
  t_entering_fiber = &m;  // consumed only on m's first activation
  from_scheduler_ = false;
  eh_switch(eh_globals_, f.eh_state, m.eh_state);
#if SPRWL_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&f.fake_stack, m.stack.get(),
                                 cfg_.stack_bytes);
#endif
#if SPRWL_FAST_FIBERS
  sprwl_ctx_switch(&f.rsp, m.rsp);
#else
  swapcontext(&f.ctx, &m.ctx);
#endif
#if SPRWL_ASAN_FIBERS
  // Resumed: whoever switched back to us finished their half.
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
}

void Simulator::yield_from(Fiber& f) {
  if (direct_switch_) {
    direct_switch_from(f);
  } else {
    yield_to_scheduler(f);
  }
}

void Simulator::deschedule_current_until(std::uint64_t until) {
  if (running_ == nullptr) return;  // not called from a fiber: nothing to do
  ++preemptions_;
  fiber_wait_until(*running_, until);
}

void Simulator::run(int nthreads, const std::function<void(int)>& body) {
  if (nthreads <= 0) return;
  // Packed ready-set keys (see ReadySet) bound the fiber count and the
  // representable virtual time; both limits are far beyond every use.
  if (nthreads > (1 << ReadySet::kIdBits))
    throw std::invalid_argument("Simulator: more than 1024 fibers");
  if (cfg_.max_virtual_time >= (1ULL << (64 - ReadySet::kIdBits)))
    throw std::invalid_argument("Simulator: max_virtual_time >= 2^54");
  if (cfg_.policy != nullptr && cfg_.legacy_ready_queue)
    throw std::invalid_argument(
        "Simulator: controlled mode is incompatible with legacy_ready_queue");
  body_ = &body;
  controlled_ = cfg_.policy != nullptr;
  direct_switch_ = cfg_.direct_switch && !cfg_.legacy_ready_queue && !controlled_;
  // Defensive per-run reset: results always describe this run, whatever
  // state a previous run (or an exception unwinding out of one) left.
  preemptions_ = 0;
  final_time_ = 0;
  stats_ = SimStats{};
  cancel_run_ = false;
  livelocked_ = false;
  cancelled_ = false;
  progress_ = 0;
  trace_.clear();
  obj_table_.clear();
  ready_.reset(static_cast<std::size_t>(nthreads));
  eh_globals_ = reinterpret_cast<unsigned char*>(abi::__cxa_get_globals());
  fibers_.clear();
  fibers_.reserve(static_cast<std::size_t>(nthreads));

  for (int i = 0; i < nthreads; ++i) {
    auto f = std::make_unique<Fiber>();
    f->id = i;
    f->jitter = static_cast<std::uint32_t>(i) * 2654435761u + 1u;
    f->sim = this;
    // Legacy mode reproduces the original allocation behavior: a fresh
    // zero-initialized stack per fiber per run, nothing pooled.
    f->stack = cfg_.legacy_ready_queue
                   ? std::make_unique<char[]>(cfg_.stack_bytes)
                   : acquire_stack(cfg_.stack_bytes);
    f->exec_ctx.sim = this;
    f->exec_ctx.fiber = f.get();
    f->exec_ctx.enable_sched_points(controlled_);
    f->pending = PendingOp{i, SchedKind::kStart, 0};
    prepare_fiber(*f);
    if (!cfg_.legacy_ready_queue && !controlled_) ready_push(ReadySet::key(0, i));
    fibers_.push_back(std::move(f));
  }

  if (cfg_.legacy_ready_queue) {
    schedule_loop_legacy();
  } else if (controlled_) {
    schedule_loop_controlled();
  } else {
    schedule_loop();
  }

  std::exception_ptr first_error;
  std::uint64_t first_error_time = ~0ULL;
  for (auto& f : fibers_) {
    final_time_ = std::max(final_time_, f->time);
    if (f->error && f->time < first_error_time) {
      first_error = f->error;
      first_error_time = f->time;
    }
    if (!cfg_.legacy_ready_queue) {
      release_stack(cfg_.stack_bytes, std::move(f->stack));
    }
  }
  fibers_.clear();
  body_ = nullptr;
  if (first_error) std::rethrow_exception(first_error);
}

void Simulator::schedule_loop() {
  while (!ready_.empty()) {
    const std::uint64_t e = ready_pop();
    Fiber& f = *fibers_[static_cast<std::size_t>(ReadySet::id_of(e))];
    next_wake_ = ready_.empty() ? ~0ULL : ReadySet::time_of(ready_.top());
    platform::set_context(&f.exec_ctx);
    running_ = &f;
    ++stats_.switches;
    switch_to_fiber(f);
    // Under direct switching control returns here only when a fiber
    // *exits*, and `running_` then names that fiber (not necessarily f —
    // the handoffs moved on). Under the trampoline it is f, yielded or
    // done, exactly as before.
    Fiber& ran = *running_;
    running_ = nullptr;
    platform::set_context(nullptr);
    if (!ran.done) ready_push(ReadySet::key(ran.time, ran.id));
    // If a fiber errored out, the remaining ones either finish or hit the
    // virtual-time limit deterministically; run() reports the earliest error.
  }
}

// The pre-overhaul scheduler, preserved verbatim in behavior as the
// measurable wall-clock baseline (SimConfig::legacy_ready_queue): binary
// std::priority_queue ready set, every activation through the trampoline.
// It produces the exact same schedule as schedule_loop + direct switching,
// just slower — perf_pipeline quantifies by how much.
void Simulator::schedule_loop_legacy() {
  // The original two-field entry with a field-wise comparator, not the
  // packed key the ready set uses — the baseline must not inherit the
  // overhaul's representation wins.
  struct LegacyEntry {
    std::uint64_t time;
    int id;
    bool operator>(const LegacyEntry& o) const noexcept {
      return time != o.time ? time > o.time : id > o.id;
    }
  };
  std::priority_queue<LegacyEntry, std::vector<LegacyEntry>,
                      std::greater<LegacyEntry>>
      ready;
  for (auto& f : fibers_) ready.push(LegacyEntry{f->time, f->id});
  stats_.heap_pushes += fibers_.size();
  while (!ready.empty()) {
    const LegacyEntry e = ready.top();
    ready.pop();
    ++stats_.heap_pops;
    Fiber& f = *fibers_[static_cast<std::size_t>(e.id)];
    next_wake_ = ready.empty() ? ~0ULL : ready.top().time;
    platform::set_context(&f.exec_ctx);
    running_ = &f;
    ++stats_.switches;
    switch_to_fiber(f);
    Fiber& ran = *running_;
    running_ = nullptr;
    platform::set_context(nullptr);
    if (!ran.done) {
      ready.push(LegacyEntry{ran.time, ran.id});
      ++stats_.heap_pushes;
    }
  }
}

// --- controlled-scheduler mode ---------------------------------------------
//
// The ready set is unused: every live fiber is "parked" at its last
// decision point (pause / timed wait / fault::checkpoint / sched_point)
// and the policy picks which one to resume. next_wake_ is pinned to ~0 so
// virtual time never forces a yield — parking is explicit and exhaustive,
// which is what makes the explored schedule space well-defined.
//
// Spin loops need special care: a fiber parked at a pause whose condition
// cannot change until another fiber runs would otherwise let the policy
// burn the whole decision budget re-running one spinner. The progress
// counter handles it: progress_ bumps whenever a fiber parks at a
// *non*-pause point (it executed real instrumented work) or completes; a
// pause-parked fiber that already observed the current epoch
// (pause_stamp == progress_) is ineligible until the epoch moves. When
// that empties the eligible set, a "verification round" gives every live
// fiber one re-check — covering state changes that happen between pauses
// without an instrumented point in between: each decision of the round
// offers only the fibers not yet re-checked in it, and the round counts
// as a stall once all of them re-parked without progress. Offering every
// fiber at every decision instead let a policy that favours one blocked
// spinner (a PCT priority, replay's default pick) re-run it until the
// bound while a peer whose wait was over never ran — a false livelock.
// no_progress_bound stalled rounds is the livelock/deadlock verdict.

void Simulator::schedule_loop_controlled() {
  SchedulePolicy& policy = *cfg_.policy;
  policy.begin_run(static_cast<int>(fibers_.size()));
  next_wake_ = ~0ULL;
  int alive = static_cast<int>(fibers_.size());
  const int no_progress_bound =
      cfg_.resolved_no_progress_bound(static_cast<int>(fibers_.size()));
  int stall_rounds = 0;
  std::uint64_t round = 1;  // verification round; Fiber::recheck_round
  std::uint64_t last_progress = progress_;
  std::vector<PendingOp> ops;
  ops.reserve(fibers_.size());
  while (alive > 0) {
    if (progress_ != last_progress) {
      last_progress = progress_;
      stall_rounds = 0;
      ++round;
    }
    ops.clear();
    for (auto& fp : fibers_) {
      Fiber& f = *fp;
      if (f.done) continue;
      if (f.pending.kind == SchedKind::kPause && f.pause_stamp == progress_)
        continue;  // would spin again without new information
      ops.push_back(f.pending);
    }
    const bool verifying = ops.empty();
    if (verifying) {
      for (auto& fp : fibers_) {
        if (!fp->done && fp->recheck_round != round) ops.push_back(fp->pending);
      }
    }
    if (verifying && ops.empty()) {  // everyone re-checked: a stalled round
      if (++stall_rounds > no_progress_bound) {
        livelocked_ = true;
        break;
      }
      ++round;
      for (auto& fp : fibers_) {
        if (!fp->done) ops.push_back(fp->pending);
      }
    }
    if (trace_.size() >= cfg_.max_decisions) {
      livelocked_ = true;
      break;
    }
    const PickView view{trace_.size(), ops.data(),
                        static_cast<int>(ops.size())};
    const int choice = policy.pick(view);
    if (choice == SchedulePolicy::kCancelRun) break;
    Fiber* chosen = nullptr;
    for (const PendingOp& op : ops) {
      if (op.fiber == choice) {
        chosen = fibers_[static_cast<std::size_t>(choice)].get();
        break;
      }
    }
    if (chosen == nullptr) {
      cancel_all_fibers();
      cancelled_ = true;
      throw std::logic_error(
          "SchedulePolicy::pick returned an ineligible fiber");
    }
    trace_.push_back(chosen->pending);
    if (verifying) chosen->recheck_round = round;
    activate_fiber(*chosen);
    if (chosen->done) {
      --alive;
      ++progress_;
    }
  }
  if (alive > 0) {
    cancel_all_fibers();
    cancelled_ = true;
  }
}

void Simulator::controlled_point(SchedKind kind, std::uintptr_t obj) {
  Fiber* f = running_;
  if (!controlled_ || f == nullptr) return;
  if (cancel_run_) {
    if (!f->cancelling) {
      f->cancelling = true;
      throw RunCancelled{};
    }
    // Already unwinding: park cooperatively so peers can run (unwind code
    // may legitimately spin-wait on them, e.g. a queue-lock handoff in a
    // ScopeExit block).
    yield_to_scheduler(*f);
    return;
  }
  f->pending = PendingOp{f->id, kind, canonical_obj(obj)};
  if (kind == SchedKind::kPause) {
    f->pause_stamp = progress_;
  } else {
    ++progress_;
  }
  yield_to_scheduler(*f);
  if (cancel_run_ && !f->cancelling) {
    f->cancelling = true;
    throw RunCancelled{};
  }
}

void Simulator::activate_fiber(Fiber& f) {
  f.started = true;
  platform::set_context(&f.exec_ctx);
  running_ = &f;
  ++stats_.switches;
  switch_to_fiber(f);
  running_ = nullptr;
  platform::set_context(nullptr);
}

void Simulator::cancel_all_fibers() {
  cancel_run_ = true;
  next_wake_ = ~0ULL;
  // Round-robin until every fiber unwound: a single pass is not enough
  // because unwind code can wait on peers that unwind later in the pass.
  // The bound converts a stuck unwind (a genuinely broken lock whose
  // release path deadlocks) into a deterministic failure instead of a hang.
  constexpr int kMaxRounds = 100000;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool any = false;
    for (auto& fp : fibers_) {
      Fiber& f = *fp;
      if (f.done) continue;
      if (!f.started) {
        f.done = true;  // never entered the body: nothing on its stack
        continue;
      }
      any = true;
      activate_fiber(f);
    }
    if (!any) return;
  }
  throw std::runtime_error(
      "Simulator: cancelled fibers failed to unwind (release path stuck)");
}

std::uintptr_t Simulator::canonical_obj(std::uintptr_t raw) {
  if (raw == 0) return 0;
  for (std::size_t i = 0; i < obj_table_.size(); ++i) {
    if (obj_table_[i] == raw) return static_cast<std::uintptr_t>(i + 1);
  }
  obj_table_.push_back(raw);
  return static_cast<std::uintptr_t>(obj_table_.size());
}

void Simulator::fiber_advance(Fiber& f, std::uint64_t cycles) {
  f.time += cycles;
  if (f.time > cfg_.max_virtual_time) throw SimTimeLimitError(f.time);
  if (f.time > next_wake_) yield_from(f);
}

void Simulator::fiber_wait_until(Fiber& f, std::uint64_t t) {
  if (t > f.time) {
    f.time = t;
    if (f.time > cfg_.max_virtual_time) throw SimTimeLimitError(f.time);
  }
  if (f.time > next_wake_) yield_from(f);
}

void run_real_threads(int nthreads, const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nthreads));
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    threads.emplace_back([&, i] {
      ThreadIdScope scope(i);
      try {
        body(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace sprwl::sim

#if SPRWL_FAST_FIBERS
// First C++ frame of a fresh fiber (called from sprwl_fiber_entry in
// fiber_switch.S). Runs the fiber body, then returns control to the
// scheduler permanently.
extern "C" void sprwl_fiber_main() {
  using Fiber = sprwl::sim::Simulator::Fiber;
  Fiber* f = sprwl::sim::t_entering_fiber;
  sprwl::sim::t_entering_fiber = nullptr;
  sprwl::sim::Simulator::fiber_body(*f);
  sprwl::sim::Simulator::exit_fiber(*f);
}
#endif
