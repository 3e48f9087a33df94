// Reader tracking for SpRWLock (DESIGN.md §11): how a slow-path reader
// makes itself visible to writers, and how writers look for it. A lock
// builds one ReaderTracker in its lazily allocated plane, chosen once from
// Config::tracking when the lock is constructed: FlagsTracker (the paper's
// state[] flags, flat with a line-OR commit scan, or socket-major with
// per-socket reader counts), SnziTracker (§3.4, one flat tree), or
// AdaptiveTracker (both, plus a mode word and a transition word). Every
// operation charges exactly the engine accesses of the structure it
// touches, and a reader's registration store bumps a line that any writer
// past subscribe() has in its read set. The checker
// substitutes mutants (src/check/mutants.h) through the tracker factory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/aligned.h"
#include "common/cacheline.h"
#include "common/platform.h"
#include "common/trace.h"
#include "core/config.h"
#include "htm/engine.h"
#include "htm/shared.h"
#include "snzi/snzi.h"

namespace sprwl::core {

/// Per-thread state words of one lock: kIdle, kReader (a flag-registered
/// reader) or kWriter (a writer's Alg. 2 advertisement, under every
/// tracker). Flat: slot = tid, 8 per line like the paper's state[N].
/// Socket-major (Config::socket_sharded_tracking): each socket's slots form
/// a shard padded to whole lines, so a store never touches another
/// socket's line.
class StateArray {
 public:
  static constexpr std::uint64_t kIdle = 0;
  static constexpr std::uint64_t kReader = 1;  // bit 0: OR-summary early exit
  static constexpr std::uint64_t kWriter = 2;  // bit 1: invisible to the scan
  static constexpr std::size_t kSlotsPerLine = 8;

  explicit StateArray(const Config& cfg)
      : threads_(cfg.max_threads),
        socket_major_(cfg.socket_sharded_tracking),
        sockets_(socket_major_ ? std::max(cfg.topology.sockets, 1) : 1),
        topology_(cfg.topology),
        stride_(stride_of(cfg)),
        words_(static_cast<std::size_t>(sockets_) * stride_) {}

  htm::Shared<std::uint64_t>& operator[](int tid) { return words_[slot(tid)]; }
  /// Slots in layout order; in the flat layout slot i is thread i.
  const htm::Shared<std::uint64_t>* slots() const { return words_.data(); }
  int threads() const noexcept { return threads_; }
  bool socket_major() const noexcept { return socket_major_; }
  int sockets() const noexcept { return sockets_; }
  int socket_of(int tid) const noexcept { return topology_.socket_of(tid); }

  /// Uncharged: some slot holds kReader.
  bool any_reader_raw() const {
    return std::any_of(words_.begin(), words_.end(),
                       [](const auto& w) { return w.raw_load() == kReader; });
  }
  std::size_t bytes() const { return words_.capacity() * sizeof(words_[0]); }

 private:
  /// Slots per socket shard, line-rounded. A topology without
  /// cores_per_socket puts every thread on socket 0.
  static std::size_t stride_of(const Config& cfg) {
    const auto threads = static_cast<std::size_t>(cfg.max_threads);
    const int cps = cfg.topology.cores_per_socket;
    if (!cfg.socket_sharded_tracking) return threads;
    const std::size_t n = cfg.topology.sockets > 1 && cps > 0
                              ? static_cast<std::size_t>(cps)
                              : threads;
    return (n + kSlotsPerLine - 1) / kSlotsPerLine * kSlotsPerLine;
  }

  std::size_t slot(int tid) const noexcept {
    if (!socket_major_) return static_cast<std::size_t>(tid);
    const int cps = topology_.cores_per_socket;
    return static_cast<std::size_t>(socket_of(tid)) * stride_ +
           static_cast<std::size_t>(cps > 0 ? tid % cps : tid);
  }

  int threads_;
  bool socket_major_;
  int sockets_;
  sim::Topology topology_;
  std::size_t stride_;  // slots per socket shard, line-rounded
  aligned_vector<htm::Shared<std::uint64_t>> words_;
};

class ReaderTracker {
 public:
  explicit ReaderTracker(StateArray& state) : state_(state) {}
  virtual ~ReaderTracker() = default;
  ReaderTracker(const ReaderTracker&) = delete;
  ReaderTracker& operator=(const ReaderTracker&) = delete;

  /// Registers reader `tid` and fences, so the registration is visible
  /// before the section's first read. Returns the token depart() takes.
  virtual int arrive(int tid) = 0;
  /// Deregisters a reader; the caller fences first.
  virtual void depart(int tid, int token) = 0;
  /// The commit-time check inside the writer's transaction: true iff a
  /// registered reader is visible. Every word read joins the read set.
  virtual bool subscribe(int tid) = 0;
  /// Alg. 1 wait_for_readers, for the SGL holder `tid`.
  virtual void drain(int tid) = 0;
  /// Uncharged: no reader is registered in this tracker's structures.
  virtual bool quiescent_raw() const = 0;
  /// Sampler hook after each sampled read, given the section's EMA.
  virtual void adapt(std::uint64_t /*estimate*/) {}
  virtual bool uses_snzi() const { return false; }
  /// True while an adaptive flip has writers check both structures.
  virtual bool in_transition() const { return false; }
  virtual std::size_t snzi_leaves() const { return 0; }
  /// The tracker object plus the heap it owns.
  virtual std::size_t bytes() const = 0;

  /// Alg. 3's input: the latest `end_of(t)` over readers t != tid that
  /// show kReader in the state array, or 0. SNZI arrivals carry no
  /// identity, so they never appear here.
  template <class EndOf>
  std::uint64_t latest_reader_end(int tid, EndOf end_of) {
    std::uint64_t last = 0;
    for (int t = 0; t < state_.threads(); ++t) {
      if (t != tid && state_[t].load() == StateArray::kReader) {
        last = std::max(last, end_of(t));
      }
    }
    return last;
  }

 protected:
  StateArray& state_;
};

/// The paper's flags. Socket-major layouts add one reader count per socket
/// (word 0 of its own line), which is all the commit scan reads.
class FlagsTracker : public ReaderTracker {
 public:
  FlagsTracker(const Config&, StateArray& state)
      : ReaderTracker(state),
        counts_(StateArray::kSlotsPerLine *
                static_cast<std::size_t>(state.socket_major() ? state.sockets()
                                                              : 0)) {}

  int arrive(int tid) override {
    state_[tid].store(StateArray::kReader);  // strong isolation
    if (state_.socket_major()) count_add(tid, +1);
    htm::memory_fence();
    return 0;
  }
  void depart(int tid, int) override {
    state_[tid].store(StateArray::kIdle);
    if (state_.socket_major()) count_add(tid, -1);
  }

  /// One OR-summary read per line of 8 flags (ceil(T/8) line reads);
  /// writers' kWriter (bit 1) never trips it, so a writer's own slot needs
  /// no skip.
  bool subscribe(int) override {
    if (state_.socket_major()) {
      for (int s = 0; s < state_.sockets(); ++s) {
        if (count(s).load() != 0) return true;
      }
      return false;
    }
    const auto n = static_cast<std::size_t>(state_.threads());
    for (std::size_t base = 0; base < n; base += StateArray::kSlotsPerLine) {
      const std::size_t len = std::min(StateArray::kSlotsPerLine, n - base);
      const std::uint64_t any = htm::line_or(state_.slots() + base, len);
      if ((any & StateArray::kReader) != 0) return true;
    }
    return false;
  }

  /// Per slot even when socket-major: deferring readers churn the counts
  /// with transient +1/-1, while a slot, once clear, is never revisited.
  void drain(int tid) override {
    for (int t = 0; t < state_.threads(); ++t) {
      if (t == tid) continue;
      while (state_[t].load() == StateArray::kReader) platform::pause();
    }
  }

  bool quiescent_raw() const override {
    if (state_.socket_major()) {
      for (int s = 0; s < state_.sockets(); ++s) {
        if (count(s).raw_load() != 0) return false;
      }
      return true;
    }
    for (int t = 0; t < state_.threads(); ++t) {
      if (state_[t].raw_load() == StateArray::kReader) return false;
    }
    return true;
  }

  std::size_t bytes() const override { return sizeof(*this) + heap_bytes(); }
  std::size_t heap_bytes() const {
    return counts_.capacity() * sizeof(counts_[0]);
  }

 protected:
  htm::Shared<std::uint64_t>& count(int s) const {
    return counts_[static_cast<std::size_t>(s) * StateArray::kSlotsPerLine];
  }

 private:
  /// Strong-isolation CAS loop: the version bump on the count's line is
  /// what aborts a writer that already subscribed it.
  void count_add(int tid, std::int64_t delta) {
    htm::Shared<std::uint64_t>& c = count(state_.socket_of(tid));
    for (;;) {
      const std::uint64_t v = c.load();
      if (c.cas(v, v + static_cast<std::uint64_t>(delta))) return;
      platform::pause();
    }
  }

  mutable aligned_vector<htm::Shared<std::uint64_t>> counts_;
};

class SnziTracker : public ReaderTracker {
 public:
  SnziTracker(const Config& cfg, StateArray& state)
      : ReaderTracker(state), snzi_(tree_config(cfg)) {}

  int arrive(int tid) override {
    snzi_.arrive(tid);
    htm::memory_fence();
    return 0;
  }
  void depart(int tid, int) override { snzi_.depart(tid); }
  bool subscribe(int) override { return snzi_.query(); }
  void drain(int) override { while (snzi_.query()) platform::pause(); }
  bool quiescent_raw() const override { return snzi_.root_count_raw() == 0; }
  bool uses_snzi() const override { return true; }
  std::size_t snzi_leaves() const override { return snzi_.leaf_count(); }
  std::size_t bytes() const override { return sizeof(*this) + heap_bytes(); }
  std::size_t heap_bytes() const {
    return snzi_.footprint_bytes() - sizeof(snzi_);
  }

 private:
  static snzi::Snzi::Config tree_config(const Config& cfg) {
    snzi::Snzi::Config sc;
    sc.levels = cfg.snzi_levels;
    if (sc.levels == 0) {
      // Roughly max_threads/2 leaves, capped only by the tree's own limit.
      sc.levels = 1;
      while ((1 << (sc.levels - 1)) * 2 < cfg.max_threads &&
             sc.levels < snzi::Snzi::kMaxLevels) {
        ++sc.levels;
      }
    }
    return sc;
  }

  snzi::Snzi snzi_;
};

/// Flags while readers are short, SNZI once the sampled duration reaches
/// kThresholdCycles. A flip is two-phase: the transition word stays set,
/// and writers check both structures, until the sampler sees the old
/// structure drained.
class AdaptiveTracker : public ReaderTracker {
 public:
  /// Sampled reader duration at and above which readers go to SNZI.
  static constexpr std::uint64_t kThresholdCycles = 20'000;

  AdaptiveTracker(const Config& cfg, StateArray& state)
      : ReaderTracker(state), flags_(cfg, state), snzi_(cfg, state) {}

  /// The mode is re-read after registering, so a reader racing a flip
  /// never sits, active, in a structure the sampler declared drained.
  int arrive(int tid) override {
    std::uint64_t m = words_.mode.load();
    for (;;) {
      of(m).arrive(tid);
      const std::uint64_t cur = words_.mode.load();
      if (cur == m) return static_cast<int>(m);
      of(m).depart(tid, 0);
      m = cur;
    }
  }
  void depart(int tid, int token) override {
    of(static_cast<std::uint64_t>(token)).depart(tid, 0);
  }

  /// Both words join the read set, so a flip mid-transaction aborts the
  /// writer rather than hiding a reader.
  bool subscribe(int tid) override {
    const bool both = words_.transition.load() != 0;
    const std::uint64_t m = words_.mode.load();
    if ((both || m == kSnzi) && snzi_.subscribe(tid)) return true;
    return (both || m == kFlags) && flags_.subscribe(tid);
  }
  void drain(int tid) override {
    snzi_.drain(tid);
    flags_.drain(tid);
  }
  bool quiescent_raw() const override {
    return snzi_.quiescent_raw() && flags_.quiescent_raw();
  }

  void adapt(std::uint64_t estimate) override {
    if (words_.transition.load() != 0) {
      const bool old_is_snzi = words_.mode.load() != kSnzi;
      if (old_is_snzi ? snzi_.quiescent_raw() : flags_.quiescent_raw()) {
        words_.transition.store(0);
        trace::emit(trace::Event::kModeTransitionDone);
      }
      return;
    }
    const std::uint64_t desired = estimate >= kThresholdCycles ? kSnzi : kFlags;
    if (desired != words_.mode.load()) {
      words_.transition.store(1);  // ordered before the flip
      words_.mode.store(desired);
      trace::emit(desired == kSnzi ? trace::Event::kModeFlipToSnzi
                                   : trace::Event::kModeFlipToFlags);
    }
  }

  bool uses_snzi() const override { return words_.mode.raw_load() == kSnzi; }
  bool in_transition() const override {
    return words_.transition.raw_load() != 0;
  }
  std::size_t snzi_leaves() const override { return snzi_.snzi_leaves(); }
  std::size_t bytes() const override {
    return sizeof(*this) + flags_.heap_bytes() + snzi_.heap_bytes();
  }

 private:
  static constexpr std::uint64_t kFlags = 0;
  static constexpr std::uint64_t kSnzi = 1;

  ReaderTracker& of(std::uint64_t m) {
    return m == kSnzi ? static_cast<ReaderTracker&>(snzi_) : flags_;
  }

  // Line-aligned, so no Shared<> word of another object shares their line.
  struct alignas(kCacheLineSize) ModeWords {
    htm::Shared<std::uint64_t> mode{kFlags};
    htm::Shared<std::uint64_t> transition{0};
  };
  ModeWords words_;
  FlagsTracker flags_;
  SnziTracker snzi_;
};

/// Builds a lock's tracker inside its tracking plane.
using TrackerFactory = std::unique_ptr<ReaderTracker> (*)(const Config&,
                                                          StateArray&);

template <class T>
std::unique_ptr<ReaderTracker> make_tracker(const Config& cfg,
                                            StateArray& state) {
  return std::make_unique<T>(cfg, state);
}

/// The factory Config::tracking names.
inline TrackerFactory tracker_for(Tracking t) {
  switch (t) {
    case Tracking::kFlags: return &make_tracker<FlagsTracker>;
    case Tracking::kSnzi: return &make_tracker<SnziTracker>;
    case Tracking::kAdaptive: return &make_tracker<AdaptiveTracker>;
  }
  throw std::invalid_argument("SpRWLock: unknown Config::tracking value");
}

}  // namespace sprwl::core
