#include "htm/engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace sprwl::htm {

std::atomic<Engine*> Engine::g_current{nullptr};
constinit thread_local Engine* Engine::t_current = nullptr;

const char* to_string(AbortCause c) noexcept {
  switch (c) {
    case AbortCause::kNone:
      return "none";
    case AbortCause::kConflict:
      return "conflict";
    case AbortCause::kCapacity:
      return "capacity";
    case AbortCause::kExplicit:
      return "explicit";
    case AbortCause::kSpurious:
      return "spurious";
  }
  return "?";
}

namespace {

/// Validates cfg before any member sizes a table from it.
const EngineConfig& checked(const EngineConfig& cfg) {
  if (cfg.max_threads <= 0) throw std::invalid_argument("max_threads must be > 0");
  if (cfg.table_bits < 4 || cfg.table_bits > 28)
    throw std::invalid_argument("table_bits out of range [4,28]");
  return cfg;
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(checked(cfg)),
      spurious_rate_(cfg.spurious_abort_rate),
      table_mask_((1ULL << cfg.table_bits) - 1),
      table_(std::size_t{1} << cfg.table_bits),
      line_ids_(cfg.table_bits),
      track_owners_(cfg.track_line_owners || cfg.topology.sockets > 1 ||
                    cfg.topology.nodes > 1),
      owners_(track_owners_ ? table_.size() : 0),
      retain_(cfg.retain_versions),
      // One K-slot ring per table index.
      line_hist_(retain_ != 0 ? table_.size() : 0),
      version_ring_(table_.size() * retain_) {
  descriptors_.reserve(static_cast<std::size_t>(cfg.max_threads));
  std::uint64_t seed_state = cfg.seed;
  for (int i = 0; i < cfg.max_threads; ++i) {
    auto d = std::make_unique<Descriptor>();
    d->rng = Rng(splitmix64(seed_state));
    d->cap_read_lines.store(cfg.capacity.read_lines, std::memory_order_relaxed);
    d->cap_write_lines.store(cfg.capacity.write_lines, std::memory_order_relaxed);
    descriptors_.push_back(std::move(d));
  }
}

void Engine::set_thread_capacity(int tid, std::uint32_t read_lines,
                                 std::uint32_t write_lines) {
  if (tid < 0 || tid >= cfg_.max_threads) return;
  Descriptor& d = *descriptors_[static_cast<std::size_t>(tid)];
  d.cap_read_lines.store(read_lines, std::memory_order_relaxed);
  d.cap_write_lines.store(write_lines, std::memory_order_relaxed);
}

void Engine::plain_access(const void* addr) {
  if (!track_owners_) return;
  charge_coherence(line_of(reinterpret_cast<std::uintptr_t>(addr)));
}

void Engine::syscall(std::uint64_t cost_cycles) {
  if (in_tx()) abort_internal(AbortCause::kSpurious);
  platform::advance(cost_cycles);
}

Engine::~Engine() {
  // Clear only slots that still point at this engine: the thread-local one
  // unconditionally, the process-wide one with a CAS so destroying an
  // engine on one worker thread never clears another worker's install.
  if (t_current == this) t_current = nullptr;
  Engine* expected = this;
  g_current.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
}

void Engine::abort_tx(std::uint8_t code) {
  assert(in_tx() && "abort_tx outside a transaction");
  abort_internal(AbortCause::kExplicit, code);
}

void Engine::abort_internal(AbortCause cause, std::uint8_t code) {
  throw AbortException(cause, code);
}

void Engine::maybe_spurious(Descriptor& d) {
  const double rate = spurious_rate_.load(std::memory_order_relaxed);
  if (rate > 0.0 && d.rng.next_bool(rate)) {
    abort_internal(AbortCause::kSpurious);
  }
}

void Engine::begin_attempt(Descriptor& d, bool rot) {
  platform::advance(g_costs.tx_begin);
  assert(d.snap_pin.load(std::memory_order_relaxed) == kNoSnapshot &&
         "transaction inside a snapshot section (end the snapshot first)");
  d.depth = 1;
  d.is_rot = rot;
  d.rv = gvc_.load(std::memory_order_acquire);
  d.reads.clear();
  d.read_lines.clear();
  d.writes.clear();
  d.write_words.clear();
  d.write_lines.clear();
  d.write_line_list.clear();
  if (rot) {
    // The engine emulates POWER8, where ROTs are effectively serialized by
    // the users of the feature (RW-LE holds a writer lock around them).
    const int prev = active_rots_.fetch_add(1, std::memory_order_acq_rel);
    assert(prev == 0 && "concurrent ROTs are not supported (serialize them)");
    (void)prev;
  }
}

void Engine::extend(Descriptor& d) {
  const std::uint64_t new_rv = gvc_.load(std::memory_order_acquire);
  for (const ReadEntry& e : d.reads) {
    const std::uint64_t v = table_.at(e.line).load(std::memory_order_acquire);
    if (v != e.version) abort_internal(AbortCause::kConflict);
  }
  d.rv = new_rv;
}

std::uint64_t Engine::coherence_extra(std::uint32_t line, bool is_write) noexcept {
  const int tid = platform::thread_id();
  if (tid < 0) return 0;  // no dense id -> no socket; leave ownership alone
  const std::atomic_ref<std::uint32_t> slot = owners_.at(line);
  if (g_costs.ownership == CostModel::kHomeDirectory) {
    return home_directory_extra(slot, tid, is_write);
  }
  const std::uint32_t self_id = static_cast<std::uint32_t>(tid) + 1;
  const std::uint32_t prev = slot.load(std::memory_order_relaxed);
  if (prev == self_id) return 0;  // local hit
  slot.store(self_id, std::memory_order_relaxed);
  if (prev == 0) return 0;  // first touch: the line is born local
  const int prev_tid = static_cast<int>(prev) - 1;
  if (!cfg_.topology.same_node(prev_tid, tid)) {
    // Fabric hop: the line's last toucher lives on another node. There is
    // no cache coherence across nodes — this prices the one-sided remote
    // read the dist tier issues; protocol-level safety (versions, leases)
    // is the caller's problem (src/dist/).
    node_transfers_.fetch_add(1, std::memory_order_relaxed);
    return g_costs.remote_node;
  }
  if (cfg_.topology.same_socket(prev_tid, tid)) {
    socket_transfers_.fetch_add(1, std::memory_order_relaxed);
    return g_costs.remote_socket;
  }
  cross_transfers_.fetch_add(1, std::memory_order_relaxed);
  return g_costs.remote_cross;
}

std::uint64_t Engine::home_directory_extra(std::atomic_ref<std::uint32_t> slot,
                                           int tid, bool is_write) noexcept {
  // Within a simulator run fibers are serialized at decision points and the
  // real-thread stress suites only assert *counters*, never exact virtual
  // time, so a plain load/modify/store on the owner word is sufficient —
  // the same discipline the migratory leg uses.
  const int socket = cfg_.topology.socket_of(tid);
  const std::uint32_t bit = 1u << (socket % kSharerBits);
  const std::uint32_t word = slot.load(std::memory_order_relaxed);
  if (word == 0) {
    // First touch: the line is born local and homed at the toucher's socket.
    slot.store(kHomeTouchedBit |
                   (static_cast<std::uint32_t>(socket % 128) << kSharerBits) |
                   bit,
               std::memory_order_relaxed);
    return 0;
  }
  const std::uint32_t mask = word & kSharerMask;
  const int home = static_cast<int>((word >> kSharerBits) & 0x7f);
  if (!is_write) {
    if ((mask & bit) != 0) return 0;  // this socket already shares the line
    // Fetch-to-shared: one transfer joins the mask; later reads from this
    // socket are free until a writer invalidates it. Priced against the
    // line's home directory (fabric tier when home is on another node).
    slot.store((word & ~kSharerMask) | mask | bit, std::memory_order_relaxed);
    if (cfg_.topology.node_of_socket(home) !=
        cfg_.topology.node_of_socket(socket)) {
      node_transfers_.fetch_add(1, std::memory_order_relaxed);
      return g_costs.remote_node;
    }
    cross_transfers_.fetch_add(1, std::memory_order_relaxed);
    return g_costs.remote_cross;
  }
  // Write: invalidate every *other* sharing socket (one message each, fabric
  // tier for sharers on other nodes), then the writer holds it exclusive.
  // The home socket never moves — that is the directory point.
  const std::uint32_t others = mask & ~bit;
  slot.store((word & ~kSharerMask) | bit, std::memory_order_relaxed);
  if (others == 0) return 0;
  std::uint64_t extra = 0;
  const int self_node = cfg_.topology.node_of_socket(socket);
  for (int s = 0; s < kSharerBits; ++s) {
    if ((others & (1u << s)) == 0) continue;
    extra += cfg_.topology.node_of_socket(s) != self_node ? g_costs.remote_node
                                                          : g_costs.remote_cross;
  }
  invalidations_.fetch_add(std::popcount(others), std::memory_order_relaxed);
  return extra;
}

template <class Load>
std::uint64_t Engine::read_line(Descriptor& d, std::uintptr_t addr, Load load) {
  if (d.is_rot) return load();

  const std::uint32_t line = line_of(addr);
  if (track_owners_) charge_coherence(line);
  bool inserted = false;
  std::uint32_t& slot = d.read_lines.get_or_insert(
      line, static_cast<std::uint32_t>(d.reads.size()), inserted);
  if (!inserted) {
    // Line already in the read set: it must still hold the version we
    // recorded, before and after the load, otherwise our snapshot is broken.
    const std::uint64_t recorded = d.reads[slot].version;
    if (table_.at(line).load(std::memory_order_acquire) != recorded)
      abort_internal(AbortCause::kConflict);
    const std::uint64_t val = load();
    if (table_.at(line).load(std::memory_order_acquire) != recorded)
      abort_internal(AbortCause::kConflict);
    return val;
  }

  if (d.reads.size() + 1 > d.cap_read_lines.load(std::memory_order_relaxed))
    abort_internal(AbortCause::kCapacity);

  for (;;) {
    const std::uint64_t v1 = table_.at(line).load(std::memory_order_acquire);
    if ((v1 & kLockedBit) != 0) {  // a commit is mid-publish on this line
      platform::pause();
      continue;
    }
    const std::uint64_t val = load();
    if (table_.at(line).load(std::memory_order_acquire) != v1) continue;
    // Record the entry before extending, so the extension validates the
    // line just read too: a writer may overwrite it between the second
    // version load and the clock read in extend(), with a version at or
    // below the new rv.
    d.reads.push_back(ReadEntry{line, v1});
    if (v1 > d.rv) extend(d);  // throws AbortException on failure
    return val;
  }
}

std::uint64_t Engine::tx_read(const std::atomic<std::uint64_t>& cell) {
  Descriptor& d = self();
  assert(d.depth > 0 && "tx_read outside a transaction");
  platform::advance(g_costs.load);
  maybe_spurious(d);

  // A word this transaction wrote comes from the redo log and subscribes
  // nothing.
  const auto addr = reinterpret_cast<std::uintptr_t>(&cell);
  if (!d.writes.empty()) {
    if (const std::uint32_t* idx = d.write_words.find(addr))
      return d.writes[*idx].value;
  }
  return read_line(d, addr,
                   [&] { return cell.load(std::memory_order_acquire); });
}

std::uint64_t Engine::tx_read_line_or(const std::atomic<std::uint64_t>* first,
                                      std::size_t n) {
  Descriptor& d = self();
  assert(d.depth > 0 && "tx_read_line_or outside a transaction");
  assert(n >= 1 && n <= 8 && "a 64-byte line holds at most 8 words");
  platform::advance(g_costs.load);  // one line-granular load
  maybe_spurious(d);

  // OR of the transaction's view of the n words: the redo log is
  // word-granular, so a word this transaction already wrote is substituted
  // from the log instead of loaded from memory.
  return read_line(d, reinterpret_cast<std::uintptr_t>(first), [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!d.writes.empty()) {
        const auto waddr = reinterpret_cast<std::uintptr_t>(first + i);
        if (const std::uint32_t* idx = d.write_words.find(waddr)) {
          acc |= d.writes[*idx].value;
          continue;
        }
      }
      acc |= first[i].load(std::memory_order_acquire);
    }
    return acc;
  });
}

void Engine::tx_write(std::atomic<std::uint64_t>& cell, std::uint64_t v) {
  Descriptor& d = self();
  assert(d.depth > 0 && "tx_write outside a transaction");
  platform::advance(g_costs.store);
  maybe_spurious(d);

  const auto addr = reinterpret_cast<std::uintptr_t>(&cell);
  bool inserted = false;
  std::uint32_t& slot = d.write_words.get_or_insert(
      addr, static_cast<std::uint32_t>(d.writes.size()), inserted);
  if (!inserted) {
    d.writes[slot].value = v;
    return;
  }
  const std::uint32_t line = line_of(addr);
  bool line_inserted = false;
  d.write_lines.get_or_insert(line, 1, line_inserted);
  if (line_inserted) {
    if (d.write_lines.size() > d.cap_write_lines.load(std::memory_order_relaxed)) {
      abort_internal(AbortCause::kCapacity);
    }
    d.write_line_list.push_back(line);
  }
  d.writes.push_back(WriteEntry{&cell, v});
}

std::uint64_t Engine::lock_line(std::uint32_t line, std::uint64_t& retries) {
  const std::atomic_ref<std::uint64_t> slot = table_.at(line);
  for (;;) {
    std::uint64_t v = slot.load(std::memory_order_acquire);
    if ((v & kLockedBit) != 0) {
      ++retries;
      platform::pause();
      continue;
    }
    if (slot.compare_exchange_weak(v, v | kLockedBit,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      return v;
    }
    ++retries;  // lost the race; re-read and retry immediately
  }
}

void Engine::drain_publishers() {
  if (publish_count_.load(std::memory_order_seq_cst) == 0) return;
  bool waited = false;
  for (const auto& d : descriptors_) {
    if (d->publishing.load(std::memory_order_acquire)) {
      waited = true;
      while (d->publishing.load(std::memory_order_acquire)) platform::pause();
    }
  }
  if (waited) drains_.fetch_add(1, std::memory_order_relaxed);
}

void Engine::commit_publish(Descriptor& d) {
  auto& lines = d.write_line_list;
  std::sort(lines.begin(), lines.end());  // global order -> no lock cycles
  d.locked_versions.resize(lines.size());

  std::size_t held = 0;
  bool publishing = false;
  try {
    for (; held < lines.size(); ++held)
      d.locked_versions[held] = lock_line(lines[held], d.line_retries);

    // From here every concurrent nontx publish must be able to tell that a
    // commit is mid-flight (the strong-isolation drain): flag-before-
    // validate on this side pairs with bump-before-scan on theirs.
    publish_count_.fetch_add(1, std::memory_order_relaxed);
    d.publishing.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    publishing = true;

    const std::uint64_t wv = gvc_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (!d.is_rot) {
      for (const ReadEntry& e : d.reads) {
        const auto it = std::lower_bound(lines.begin(), lines.end(), e.line);
        if (it != lines.end() && *it == e.line) {
          // A line we also write: we hold its lock; compare the version it
          // carried when we took it.
          const std::size_t idx =
              static_cast<std::size_t>(it - lines.begin());
          if (d.locked_versions[idx] != e.version)
            abort_internal(AbortCause::kConflict);
        } else {
          // Any lock bit here belongs to another writer -> conflict.
          const std::uint64_t v =
              table_.at(e.line).load(std::memory_order_acquire);
          if (v != e.version) abort_internal(AbortCause::kConflict);
        }
      }
    }

    // The accounted write-back window: validation happened at its start,
    // the held lines stay locked through it (transactional readers of them
    // wait, nontx publishes to them queue on the line, flag bumps on other
    // lines drain it), and disjoint commits advance their own clocks in
    // parallel — the distributed analogue of the old zero-time global
    // critical section. Buffered tx stores paid no coherence at tx_write
    // time; the real traffic — pulling each written line exclusive — lands
    // here, so topology extras are charged per line inside the window.
    std::uint64_t extra = 0;
    if (track_owners_) {
      for (const std::uint32_t line : lines)
        extra += coherence_extra(line, /*is_write=*/true);
    }
    if (retain_ != 0) extra += g_costs.store * d.writes.size();  // the copies
    platform::advance(g_costs.line_publish * lines.size() + extra);

    // Write-back: no virtual-time advance from here to release, so the
    // values and their new versions appear at one virtual-time instant.
    // With retention on, every overwritten word's old value is appended to
    // its line's ring first (still under the line locks, before any store),
    // so a snapshot reader that observes a new value always finds the ring
    // entry covering it.
    if (retain_ != 0) {
      std::uint64_t min_pin = kNoSnapshot - 1;
      for (const WriteEntry& w : d.writes) {
        const std::uint32_t line =
            line_of(reinterpret_cast<std::uintptr_t>(w.cell));
        history_append(line, w.cell,
                       w.cell->load(std::memory_order_relaxed), wv, min_pin);
      }
    }
    for (const WriteEntry& w : d.writes)
      w.cell->store(w.value, std::memory_order_release);
    for (std::size_t i = 0; i < lines.size(); ++i)
      table_.at(lines[i]).store(wv, std::memory_order_release);
    d.last_wv = wv;
    d.publishing.store(false, std::memory_order_release);
    publish_count_.fetch_sub(1, std::memory_order_release);
  } catch (...) {
    // Conflict or virtual-time limit: restore the pre-lock version words
    // (nothing was written back; any wv drawn just leaves a clock gap).
    while (held-- > 0)
      table_.at(lines[held]).store(d.locked_versions[held],
                                   std::memory_order_release);
    if (publishing) {
      d.publishing.store(false, std::memory_order_release);
      publish_count_.fetch_sub(1, std::memory_order_release);
    }
    throw;
  }
}

void Engine::commit_attempt(Descriptor& d) {
  platform::advance(g_costs.tx_commit);
  maybe_spurious(d);

  if (!d.writes.empty()) commit_publish(d);
  // Read-only transactions validated their snapshot at rv already.

  ++(d.is_rot ? d.commits_rot : d.commits_htm);
  if (d.is_rot) active_rots_.fetch_sub(1, std::memory_order_acq_rel);
  d.depth = 0;
}

void Engine::rollback(Descriptor& d, AbortCause cause) {
  switch (cause) {
    case AbortCause::kConflict:
      ++d.ab_conflict;
      break;
    case AbortCause::kCapacity:
      ++d.ab_capacity;
      break;
    case AbortCause::kExplicit:
      ++d.ab_explicit;
      break;
    case AbortCause::kSpurious:
      ++d.ab_spurious;
      break;
    case AbortCause::kNone:  // a user exception: the redo log is discarded
      break;
  }
  if (d.is_rot) active_rots_.fetch_sub(1, std::memory_order_acq_rel);
  d.depth = 0;
  platform::advance(g_costs.tx_abort);
}

bool Engine::nontx_publish(std::uint32_t line, std::atomic<std::uint64_t>& cell,
                           std::uint64_t desired,
                           const std::uint64_t* expected) {
  // The publish pulls the line exclusive; the topology extra rides on the
  // publish-window charge. The only word this synchronizes on is the
  // owning line's versioned lock, so publishes to different lines never
  // serialize with each other or with disjoint commits.
  const std::uint64_t extra =
      track_owners_ ? coherence_extra(line, /*is_write=*/true) : 0;
  std::uint64_t retries = 0;
  const std::uint64_t prelock = lock_line(line, retries);
  if (retries > 0) nontx_retries_.fetch_add(retries, std::memory_order_relaxed);
  try {
    platform::advance(g_costs.line_publish + extra +
                      (retain_ != 0 ? g_costs.store : 0));
    if (expected != nullptr &&
        cell.load(std::memory_order_acquire) != *expected) {
      table_.at(line).store(prelock, std::memory_order_release);
      return false;
    }
    const std::uint64_t wv = gvc_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (retain_ != 0) {
      std::uint64_t min_pin = kNoSnapshot - 1;
      history_append(line, &cell, cell.load(std::memory_order_relaxed), wv,
                     min_pin);
    }
    cell.store(desired, std::memory_order_release);
    table_.at(line).store(wv, std::memory_order_release);
    note_publish(wv);
  } catch (...) {
    table_.at(line).store(prelock, std::memory_order_release);
    throw;
  }
  // A writer that validated this line *before* our bump is still inside
  // its publish window; wait it out so the caller — about to read data
  // uninstrumented — observes everything that commit wrote (the other half
  // of strong isolation). Bump-before-scan here pairs with the committer's
  // flag-before-validate.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  drain_publishers();
  return true;
}

void Engine::nontx_store(std::atomic<std::uint64_t>& cell, std::uint64_t v) {
  assert(!in_tx() && "nontx_store inside a transaction; use Shared<T>::store");
  platform::advance(g_costs.store);
  const std::uint32_t line = line_of(reinterpret_cast<std::uintptr_t>(&cell));
  nontx_publish(line, cell, v, nullptr);
}

bool Engine::nontx_cas(std::atomic<std::uint64_t>& cell, std::uint64_t expected,
                       std::uint64_t desired) {
  assert(!in_tx() && "nontx_cas inside a transaction; use Shared<T>::cas");
  // Test-and-test-and-set: a failing compare is a plain load — no line
  // version bump, no publish window, nothing for live transactions to
  // conflict with (a CAS that writes nothing is invisible to coherence).
  // It still pulls the line, so the topology extra applies.
  platform::advance(g_costs.load);
  if (track_owners_)
    charge_coherence(line_of(reinterpret_cast<std::uintptr_t>(&cell)));
  if (cell.load(std::memory_order_acquire) != expected) return false;
  platform::advance(g_costs.cas);
  const std::uint32_t line = line_of(reinterpret_cast<std::uintptr_t>(&cell));
  return nontx_publish(line, cell, desired, &expected);
}

std::uint64_t Engine::min_live_pin() const noexcept {
  std::uint64_t m = kNoSnapshot;
  for (const auto& d : descriptors_) {
    const std::uint64_t p = d->snap_pin.load(std::memory_order_acquire);
    if (p < m) m = p;
  }
  return m;
}

void Engine::note_publish(std::uint64_t wv) noexcept {
  if (Descriptor* d = find_self()) d->last_wv = wv;
}

void Engine::history_append(std::uint32_t line,
                            const std::atomic<std::uint64_t>* cell,
                            std::uint64_t old_value, std::uint64_t wv,
                            std::uint64_t& min_pin) {
  LineHist& h = line_hist_[line];
  const std::uint64_t s0 = word(h.seq).load(std::memory_order_relaxed);
  assert((s0 & 1) == 0 && "concurrent ring append despite the line lock");
  const std::uint64_t n = word(h.count).load(std::memory_order_relaxed);
  const std::size_t base = static_cast<std::size_t>(line) * retain_;
  std::uint64_t reclaimed_floor = 0;
  if (n >= retain_) {
    // Ring full: the oldest entry is reclaimable only once no live snapshot
    // can still need it (epoch-based reclamation in virtual time — its
    // replaced_at is at or below the oldest live pin). Otherwise the new
    // overwrite goes unrecorded: the floor rises to wv and the affected
    // snapshots fall back to the stall path (version_overflows).
    const std::uint64_t oldest =
        word(version_ring_[base + static_cast<std::size_t>(n % retain_)]
                 .replaced_at)
            .load(std::memory_order_relaxed);
    if (min_pin == kNoSnapshot - 1) min_pin = min_live_pin();
    if (oldest > min_pin) {
      word(h.seq).store(s0 + 1, std::memory_order_release);
      if (wv > word(h.floor).load(std::memory_order_relaxed))
        word(h.floor).store(wv, std::memory_order_relaxed);
      word(h.seq).store(s0 + 2, std::memory_order_release);
      overflows_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    reclaimed_floor = oldest;
  }
  word(h.seq).store(s0 + 1, std::memory_order_release);
  if (reclaimed_floor > word(h.floor).load(std::memory_order_relaxed))
    word(h.floor).store(reclaimed_floor, std::memory_order_relaxed);
  VersionSlot& s = version_ring_[base + static_cast<std::size_t>(n % retain_)];
  word(s.addr).store(reinterpret_cast<std::uintptr_t>(cell),
               std::memory_order_relaxed);
  word(s.value).store(old_value, std::memory_order_relaxed);
  word(s.replaced_at).store(wv, std::memory_order_relaxed);
  word(h.count).store(n + 1, std::memory_order_relaxed);
  word(h.seq).store(s0 + 2, std::memory_order_release);
  // Ring-occupancy high water (live retained entries on this line): the
  // adaptive-K signal. CAS loop so racing real-thread appends never lose a
  // maximum; uncontended it is one relaxed load.
  const std::uint64_t occ = n + 1 < retain_ ? n + 1 : retain_;
  std::uint64_t cur = ring_occ_max_.load(std::memory_order_relaxed);
  while (occ > cur && !ring_occ_max_.compare_exchange_weak(
                          cur, occ, std::memory_order_relaxed)) {
  }
}

std::uint64_t Engine::snapshot_begin() {
  Descriptor& d = self();
  if (retain_ == 0)
    throw std::logic_error(
        "snapshot_begin: EngineConfig::retain_versions is 0");
  assert(d.depth == 0 && "snapshot inside a transaction");
  const std::uint64_t s = gvc_.load(std::memory_order_acquire);
  d.snap_pin.store(s, std::memory_order_release);
  // Publish the pin before any ring lookup trusts it. Reclamation racing
  // this fence stays safe regardless — it raises the line floor, and every
  // lookup re-validates floor <= pin — the fence only keeps misses rare.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return s;
}

void Engine::snapshot_end() noexcept {
  if (Descriptor* d = find_self())
    d->snap_pin.store(kNoSnapshot, std::memory_order_release);
}

std::uint64_t Engine::snapshot_version() noexcept {
  const Descriptor* d = find_self();
  return d != nullptr ? d->snap_pin.load(std::memory_order_relaxed)
                      : kNoSnapshot;
}

std::uint64_t Engine::last_commit_version() noexcept { return self().last_wv; }

void Engine::note_section_version() noexcept {
  Descriptor& d = self();
  d.last_section_wv = d.last_wv;
}

std::uint64_t Engine::last_section_version() noexcept {
  return self().last_section_wv;
}

std::uint64_t Engine::snapshot_read(const std::atomic<std::uint64_t>& cell) {
  Descriptor& d = self();
  const std::uint64_t snap = d.snap_pin.load(std::memory_order_relaxed);
  assert(snap != kNoSnapshot && "snapshot_read without snapshot_begin");
  platform::advance(g_costs.load);
  const auto addr = reinterpret_cast<std::uintptr_t>(&cell);
  const std::uint32_t line = line_of(addr);
  if (track_owners_) charge_coherence(line);
  for (;;) {
    const std::uint64_t v1 = table_.at(line).load(std::memory_order_acquire);
    if ((v1 & kLockedBit) == 0 && v1 <= snap) {
      // Line unchanged since the pin: current memory is the snapshot value.
      const std::uint64_t val = cell.load(std::memory_order_acquire);
      if (table_.at(line).load(std::memory_order_acquire) == v1) return val;
      continue;  // raced a publish; reinspect
    }
    if (cfg_.broken_snapshot_too_new) {  // checker self-validation only
      ++d.snap_hits;
      return cell.load(std::memory_order_acquire);
    }
    // The line is newer than the pin (or mid-publish). One seqlock pass
    // over its ring, charged as one extra line read; the writer holding
    // the line is never waited on unless its commit belongs in this
    // snapshot.
    platform::advance(g_costs.load);
    LineHist& h = line_hist_[line];
    const std::uint64_t s0 = word(h.seq).load(std::memory_order_acquire);
    if ((s0 & 1) != 0) {  // append in flight
      platform::pause();
      continue;
    }
    const std::uint64_t fl = word(h.floor).load(std::memory_order_acquire);
    const std::uint64_t n = word(h.count).load(std::memory_order_acquire);
    const std::size_t base = static_cast<std::size_t>(line) * retain_;
    // Oldest-first: per-line replaced_at is monotone (appends happen under
    // the line lock, which orders the wv fetch_adds), so the first entry
    // of this word with replaced_at > snap is the value the snapshot saw.
    bool found = false;
    std::uint64_t found_value = 0;
    for (std::uint64_t i = n > retain_ ? n - retain_ : 0; i < n && !found;
         ++i) {
      VersionSlot& s =
          version_ring_[base + static_cast<std::size_t>(i % retain_)];
      if (word(s.addr).load(std::memory_order_relaxed) == addr &&
          word(s.replaced_at).load(std::memory_order_relaxed) > snap) {
        found_value = word(s.value).load(std::memory_order_relaxed);
        found = true;
      }
    }
    if (word(h.seq).load(std::memory_order_acquire) != s0) continue;  // ring moved
    if (snap < fl) {
      // The ring no longer covers the pin: the oldest needed version was
      // reclaimed or never retained. Fall back to the stall path.
      ++d.snap_misses;
      throw SnapshotMiss{};
    }
    if (found) {
      ++d.snap_hits;
      return found_value;
    }
    if ((v1 & kLockedBit) != 0) {
      // In-flight publish and no retained entry newer than the pin: either
      // the commit's wv is at or below the pin (its writes belong in this
      // snapshot) or its write-back is about to append the entry this
      // reader needs. Brief reader-side wait; the writer never waits.
      platform::pause();
      continue;
    }
    // No overwrite of this word since the pin (the ring is complete above
    // the floor): current memory is the snapshot value. Re-validating the
    // ring after the load catches a racing overwrite — every publish
    // appends before it stores.
    const std::uint64_t val = cell.load(std::memory_order_acquire);
    if (word(h.seq).load(std::memory_order_acquire) != s0) continue;
    ++d.snap_hits;
    return val;
  }
}

EngineStats Engine::stats() const {
  EngineStats s;
  for (const auto& d : descriptors_) {
    s.commits_htm += d->commits_htm;
    s.commits_rot += d->commits_rot;
    s.aborts_conflict += d->ab_conflict;
    s.aborts_capacity += d->ab_capacity;
    s.aborts_explicit += d->ab_explicit;
    s.aborts_spurious += d->ab_spurious;
    s.commit_line_retries += d->line_retries;
    s.snapshot_hits += d->snap_hits;
    s.snapshot_misses += d->snap_misses;
  }
  s.nontx_line_retries = nontx_retries_.load(std::memory_order_relaxed);
  s.publish_drains = drains_.load(std::memory_order_relaxed);
  s.socket_transfers = socket_transfers_.load(std::memory_order_relaxed);
  s.cross_transfers = cross_transfers_.load(std::memory_order_relaxed);
  s.node_transfers = node_transfers_.load(std::memory_order_relaxed);
  s.version_overflows = overflows_.load(std::memory_order_relaxed);
  s.ring_occupancy_max = ring_occ_max_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  return s;
}

void Engine::reset_stats() {
  for (auto& d : descriptors_) {
    d->commits_htm = d->commits_rot = 0;
    d->ab_conflict = d->ab_capacity = d->ab_explicit = d->ab_spurious = 0;
    d->line_retries = 0;
    d->snap_hits = d->snap_misses = 0;
  }
  nontx_retries_.store(0, std::memory_order_relaxed);
  drains_.store(0, std::memory_order_relaxed);
  socket_transfers_.store(0, std::memory_order_relaxed);
  cross_transfers_.store(0, std::memory_order_relaxed);
  node_transfers_.store(0, std::memory_order_relaxed);
  overflows_.store(0, std::memory_order_relaxed);
  ring_occ_max_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

}  // namespace sprwl::htm
