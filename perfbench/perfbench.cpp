// The repository benchmark program: SpRWL end to end.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// One invocation is one repetition of one workload: it builds the workload
// from the seed (construction, population, a warmup phase), then runs the
// measured phase, a fixed total number of operations on 28 simulated
// threads of one simulator, which runs on this one OS thread. It checks the
// outputs and prints the modelled metrics and a digest of every
// virtual-time result and counter. perfbench/run.py repeats invocations,
// each in a fresh process: the library's lock shells are not cache-line
// aligned, so their line geometry (and with it virtual time) follows the
// heap layout, which only a fresh process reproduces exactly.
//
// --trace 1 also records spans (see loop.h), reports the per-layer metrics,
// checks the cycle accounting, and writes the spans as Chrome trace-event
// JSON into --trace-dir. --setup-only stops after the warmup.
//
// The last line of stdout is one JSON object that run.py reads.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bravo.h"
#include "core/sprwl.h"
#include "htm/engine.h"
#include "loop.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "tpcc/tpcc.h"
#include "tpcc/tpcc_driver.h"
#include "workloads/hashmap.h"
#include "workloads/lock_table.h"

namespace perfbench {
namespace {

using namespace sprwl;
using Clock = std::chrono::steady_clock;

/// The paper's Broadwell machine: 28 cores, so no SMT capacity sharing.
constexpr int kThreads = 28;

/// FNV-1a over every virtual-time result and counter of a repetition.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Lock-layer counters of the measured phase, summed over every lock.
struct LockLayer {
  locks::LockStats stats;
  std::uint64_t reader_aborts = 0;
  std::uint64_t scan_cycles = 0;
  std::uint64_t scan_count = 0;
  bool bravo = false;
  std::uint64_t bias_reads = 0;
  std::uint64_t revocations = 0;
  std::uint64_t revoke_cycles = 0;

  void add_lock(const core::SpRWLock& l) {
    const locks::LockStats s = l.stats();
    stats.reads += s.reads;
    stats.writes += s.writes;
    stats.aborts += s.aborts;
    stats.escalations += s.escalations;
    reader_aborts += l.reader_abort_count();
    scan_cycles += l.commit_scan_cycles();
    scan_count += l.commit_scan_count();
    bias_reads += l.bias_read_count();
    revocations += l.revocation_count();
    revoke_cycles += l.revocation_cycles();
  }
};

/// Output checks at quiescence; any false fails the repetition.
struct Checks {
  std::vector<std::pair<std::string, bool>> items;
  void add(const std::string& name, bool ok) { items.emplace_back(name, ok); }
  bool ok() const {
    for (const auto& i : items) {
      if (!i.second) return false;
    }
    return true;
  }
};

core::Config paper_default_lock() {
  return core::Config::variant(core::SchedulingVariant::kFull, kThreads);
}

htm::EngineConfig broadwell_engine(std::uint64_t seed) {
  htm::EngineConfig ec;
  ec.capacity = htm::kBroadwell;
  ec.max_threads = kThreads;
  ec.seed = seed;
  return ec;
}

// --- workloads -------------------------------------------------------------
//
// Each workload owns its engine, data and locks. populate() fills the data,
// op() performs one operation through Loop::call, check() verifies the
// outputs at quiescence, and digest() folds in the final data state.

/// Paper Fig. 3: 10 lookups per read over ~128-entry chains, so every read
/// overflows HTM capacity and runs uninstrumented; 10% inserts/erases.
class HashmapLongReaders {
 public:
  static constexpr const char* kName = "hashmap-long-readers";
  static constexpr std::uint64_t kWarmupOps = 1'500;
  static constexpr std::uint64_t kMeasureOps = 40'000;
  static constexpr std::uint64_t kPopulation = 32768;
  static constexpr std::uint64_t kKeySpace = 65536;
  static constexpr int kLookups = 10;
  static std::vector<std::string> type_names() {
    return {"lookup", "insert", "erase"};
  }

  explicit HashmapLongReaders(std::uint64_t seed)
      : engine(broadwell_engine(seed)),
        seed_(seed),
        map_(map_config()),
        lock_(paper_default_lock()) {}

  void populate() {
    Rng rng(seed_);
    map_.populate(kPopulation, kKeySpace, rng);
  }

  void op(Loop& loop, int tid, Rng& rng) {
    if (rng.next_bool(0.10)) {
      const std::uint64_t key = rng.next_below(kKeySpace);
      const bool insert = rng.next_bool(0.5);
      bool done = false;
      loop.call(tid, lock_, kWrite, 1, insert ? 1 : 2, [&] {
        done = insert ? map_.insert(key, key * 3 + 1) : map_.erase(key);
      });
      if (done) ++(insert ? inserted_ : erased_);
    } else {
      // Keys are drawn before the call: the body may run more than once.
      std::uint64_t keys[kLookups];
      for (auto& k : keys) k = rng.next_below(kKeySpace);
      loop.call(tid, lock_, kRead, 0, 0, [&] {
        for (const std::uint64_t k : keys) map_.lookup(k);
      });
    }
  }

  void reset_stats() {
    engine.reset_stats();
    lock_.reset_stats();
  }
  LockLayer lock_layer() const {
    LockLayer l;
    l.add_lock(lock_);
    return l;
  }
  void check(Checks& c) const {
    const std::size_t size = map_.raw_size();
    c.add("hashmap size == population + inserts - erases",
          size == kPopulation + inserted_ - erased_);
    c.add("tracking_quiescent", lock_.tracking_quiescent());
  }
  void digest(Digest& d) const {
    d.add(map_.raw_size());
    d.add(inserted_);
    d.add(erased_);
  }

  htm::Engine engine;

 private:
  static workloads::HashMap::Config map_config() {
    workloads::HashMap::Config mc;
    mc.buckets = 256;  // chain ~128: 10 lookups touch ~640 lines > 512
    mc.capacity = static_cast<std::uint32_t>(kPopulation * 2);
    mc.max_threads = kThreads;
    return mc;
  }

  std::uint64_t seed_;
  workloads::HashMap map_;
  core::SpRWLock lock_;
  std::uint64_t inserted_ = 0;
  std::uint64_t erased_ = 0;
};

/// Paper Fig. 7: the TPC-C mix on 28 warehouses under one global SpRWL.
class Tpcc {
 public:
  static constexpr const char* kName = "tpcc";
  static constexpr std::uint64_t kWarmupOps = 2'000;
  static constexpr std::uint64_t kMeasureOps = 48'000;
  enum Type : std::uint8_t {
    kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel
  };
  static std::vector<std::string> type_names() {
    return {"new_order", "payment", "order_status", "delivery", "stock_level"};
  }

  explicit Tpcc(std::uint64_t seed)
      : engine(broadwell_engine(seed)),
        db_(scale(seed)),
        lock_(paper_default_lock()) {}

  void populate() { db_.populate(); }

  void op(Loop& loop, int tid, Rng& rng) {
    const int home_w = tid + 1;  // one home warehouse per thread
    const double u = rng.next_double();
    // The paper's mix: SL 31%, OS 4%, D 4%, P 43%, NO 18%. Inputs are
    // generated outside the section, so a re-run body sees the same ones.
    if (u < 0.31) {
      const tpcc::StockLevelInput in = db_.make_stock_level_input(rng, home_w);
      loop.call(tid, lock_, kRead, tpcc::kCsStockLevel, kStockLevel,
                [&] { db_.stock_level(in); });
    } else if (u < 0.35) {
      const tpcc::OrderStatusInput in =
          db_.make_order_status_input(rng, home_w);
      loop.call(tid, lock_, kRead, tpcc::kCsOrderStatus, kOrderStatus,
                [&] { db_.order_status(in); });
    } else if (u < 0.39) {
      const tpcc::DeliveryInput in = db_.make_delivery_input(rng, home_w);
      loop.call(tid, lock_, kWrite, tpcc::kCsDelivery, kDelivery,
                [&] { db_.delivery(in); });
    } else if (u < 0.82) {
      const tpcc::PaymentInput in = db_.make_payment_input(rng, home_w);
      loop.call(tid, lock_, kWrite, tpcc::kCsPayment, kPayment,
                [&] { db_.payment(in); });
    } else {
      const tpcc::NewOrderInput in = db_.make_new_order_input(rng, home_w);
      loop.call(tid, lock_, kWrite, tpcc::kCsNewOrder, kNewOrder,
                [&] { db_.new_order(in); });
    }
  }

  void reset_stats() {
    engine.reset_stats();
    lock_.reset_stats();
  }
  LockLayer lock_layer() const {
    LockLayer l;
    l.add_lock(lock_);
    return l;
  }
  void check(Checks& c) const {
    c.add("tpcc C1 warehouse ytd", db_.check_warehouse_ytd());
    c.add("tpcc C2 next order id", db_.check_next_order_id());
    c.add("tpcc C3 new-order queue", db_.check_new_order_queue());
    c.add("tpcc C4 order-line counts", db_.check_order_line_counts());
    c.add("tpcc balance invariant", db_.raw_total_balance_drift() == 0);
    c.add("tracking_quiescent", lock_.tracking_quiescent());
  }
  void digest(Digest& d) const { d.add_signed(db_.raw_total_balance_drift()); }

  htm::Engine engine;

 private:
  static tpcc::Scale scale(std::uint64_t seed) {
    tpcc::Scale s;  // the fig7 bench's scale, warehouses = threads, except:
    s.warehouses = kThreads;
    s.districts_per_warehouse = 10;
    s.customers_per_district = 300;
    s.items = 5000;
    // The balance invariant holds only while no order delivered during the
    // run has left the ring. 256 slots leave 166 zero-amount populated
    // orders per district to overwrite first; a run adds ~40 at most.
    s.order_ring = 256;
    s.max_threads = kThreads;
    s.history_per_thread = 4096;
    s.seed = seed;
    return s;
  }

  tpcc::Database db_;
  core::SpRWLock lock_;
};

/// 2^16 per-key SpRWLocks with BRAVO reader bias on a socket-sharded reader
/// table, 2 sockets with line-owner tracking, zipf 0.99, 1% updates.
class ZipfLockTable2s {
 public:
  static constexpr const char* kName = "zipf-locktable-2s";
  static constexpr std::uint64_t kWarmupOps = 40'000;
  static constexpr std::uint64_t kMeasureOps = 400'000;
  static constexpr std::uint64_t kKeys = std::uint64_t{1} << 16;
  static std::vector<std::string> type_names() { return {"verify", "bump"}; }

  explicit ZipfLockTable2s(std::uint64_t seed)
      : engine(engine_config(seed)),
        table_(table_config()),
        zipf_(kKeys, 0.99) {}

  void populate() {}  // the table starts intact; construction is the setup

  void op(Loop& loop, int tid, Rng& rng) {
    const std::uint64_t key = table_.key_of_rank(zipf_.next(rng));
    core::SpRWLock& lock = table_.lock_of(key);
    if (rng.next_bool(0.01)) {
      loop.call(tid, lock, kWrite, 1, 1, [&] { table_.bump_key(key); });
    } else {
      bool ok = true;
      loop.call(tid, lock, kRead, 0, 0,
                [&] { ok = table_.verify_key(key, true); });
      if (!ok) ++torn_reads_;
    }
  }

  void reset_stats() {
    engine.reset_stats();
    table_.reset_stats();
  }
  LockLayer lock_layer() {
    LockLayer l;
    l.bravo = true;
    for (std::uint64_t k = 0; k < kKeys; ++k) l.add_lock(table_.lock_of(k));
    return l;
  }
  void check(Checks& c) {
    c.add("lock table: no torn read", torn_reads_ == 0);
    c.add("lock table raw_all_intact", table_.raw_all_intact());
    bool quiescent = true;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      quiescent = quiescent && table_.lock_of(k).tracking_quiescent();
    }
    c.add("tracking_quiescent (every lock)", quiescent);
    c.add("bravo table slots empty",
          table_.config().lock.bravo_table->all_slots_empty_raw());
  }
  void digest(Digest& d) const {
    std::uint64_t versions = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      versions = versions * 31 + table_.raw_version_of(k);
    }
    d.add(versions);
    d.add(torn_reads_);
  }
  std::uint64_t per_op_failures() const { return torn_reads_; }

  htm::Engine engine;

 private:
  static htm::EngineConfig engine_config(std::uint64_t seed) {
    htm::EngineConfig ec = broadwell_engine(seed);
    ec.topology = sim::Topology::split(kThreads, 2);
    ec.track_line_owners = true;
    return ec;
  }
  static workloads::LockTable::Config table_config() {
    core::Config c = paper_default_lock();
    c.reader_htm_first = false;
    c.bravo_bias = true;
    c.topology = sim::Topology::split(kThreads, 2);
    bravo::ReaderTable::Config tc;
    tc.max_threads = kThreads;
    tc.topology = c.topology;
    tc.shard_by_socket = true;
    c.bravo_table = std::make_shared<bravo::ReaderTable>(tc);
    workloads::LockTable::Config cfg;
    cfg.keys = kKeys;
    cfg.lock = c;
    return cfg;
  }

  workloads::LockTable table_;
  workloads::Zipfian zipf_;
  std::uint64_t torn_reads_ = 0;
};

// --- one repetition ----------------------------------------------------------

struct Rep {
  double populate_s = 0;  ///< construction + population
  double warmup_s = 0;
  double setup_s = 0;     ///< populate_s + warmup_s
  PhaseResult phase{Loop(0, 0, false), 0, 0, {}};
  LockLayer lock;
  htm::EngineStats engine;
  Checks checks;
  std::uint64_t op_failures = 0;
  std::string digest;
};

template <class W>
std::uint64_t per_op_failures(const W& w) {
  if constexpr (requires { w.per_op_failures(); }) {
    return w.per_op_failures();
  } else {
    return 0;
  }
}

void add_to_digest(Digest& d, const Rep& r) {
  for (const ThreadLog& log : r.phase.loop.logs) {
    d.add(log.ops);
    d.add(log.start);
    d.add(log.end);
    d.add(log.inside);
    for (const auto& lat : log.latency) {
      d.add(lat.size());
      for (const std::uint64_t v : lat) d.add(v);
    }
  }
  d.add(r.phase.final_time);
  const sim::SimStats& ss = r.phase.sim;
  for (const std::uint64_t v :
       {ss.switches, ss.direct_switches, ss.heap_pushes, ss.heap_pops}) {
    d.add(v);
  }
  const locks::LockStats& ls = r.lock.stats;
  for (const locks::OpModeCounts* m : {&ls.reads, &ls.writes}) {
    for (const std::uint64_t v :
         {m->htm, m->rot, m->gl, m->unins, m->pessimistic}) {
      d.add(v);
    }
  }
  for (const std::uint64_t v :
       {ls.aborts.conflict, ls.aborts.capacity, ls.aborts.explicit_lock_busy,
        ls.aborts.explicit_reader, ls.aborts.explicit_other, ls.aborts.spurious,
        ls.escalations.retry_exhausted, ls.escalations.capacity,
        ls.escalations.stalled_reader, ls.escalations.budget_exhausted,
        ls.escalations.lemming_avoided, r.lock.reader_aborts,
        r.lock.scan_cycles, r.lock.scan_count, r.lock.bias_reads,
        r.lock.revocations, r.lock.revoke_cycles}) {
    d.add(v);
  }
  const htm::EngineStats& es = r.engine;
  for (const std::uint64_t v :
       {es.commits_htm, es.commits_rot, es.aborts_conflict, es.aborts_capacity,
        es.aborts_explicit, es.aborts_spurious, es.commit_line_retries,
        es.nontx_line_retries, es.publish_drains, es.socket_transfers,
        es.cross_transfers, es.node_transfers, es.snapshot_hits,
        es.snapshot_misses, es.version_overflows, es.ring_occupancy_max,
        es.invalidations}) {
    d.add(v);
  }
}

/// Builds the workload from `seed`, warms it up and, unless `measure` is
/// false, runs and checks the measured phase.
template <class W>
Rep run_rep(std::uint64_t seed, bool measure, bool trace) {
  Rep r;
  const auto t0 = Clock::now();
  auto w = std::make_unique<W>(seed);
  w->populate();
  r.populate_s = seconds_since(t0);

  sim::Simulator sim;
  auto op = [&](Loop& loop, int tid, Rng& rng) { w->op(loop, tid, rng); };
  r.warmup_s =
      run_phase(sim, w->engine, kThreads, W::kWarmupOps, seed ^ 0x77a3, false, op)
          .host_s;
  r.setup_s = seconds_since(t0);
  if (!measure) return r;

  // Stats deltas from the warmup/measure boundary on.
  w->reset_stats();
  r.phase = run_phase(sim, w->engine, kThreads, W::kMeasureOps, seed, trace, op);
  r.lock = w->lock_layer();
  r.engine = w->engine.stats();
  w->check(r.checks);
  r.op_failures = per_op_failures(*w);
  Digest d;
  add_to_digest(d, r);
  w->digest(d);
  r.digest = d.hex();
  return r;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;  ///< nullopt: the layer is off (n/a)
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts)
};

/// Nearest-rank quantile of sorted samples.
std::uint64_t quantile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t total_ops(const Rep& r) {
  std::uint64_t ops = 0;
  for (const ThreadLog& log : r.phase.loop.logs) ops += log.ops;
  return ops;
}

void add_latency(std::vector<Metric>& out, const char* prefix,
                 const std::vector<ThreadLog>& logs, Kind kind) {
  std::vector<std::uint64_t> all;
  for (const ThreadLog& log : logs) {
    all.insert(all.end(), log.latency[kind].begin(), log.latency[kind].end());
  }
  std::sort(all.begin(), all.end());
  const std::uint64_t p99 = quantile(all, 0.99);
  const auto beyond = static_cast<std::size_t>(
      all.end() - std::upper_bound(all.begin(), all.end(), p99));
  char note[96];
  std::snprintf(note, sizeof note, "n=%zu", all.size());
  out.push_back({std::string(prefix) + "_p50_cyc",
                 static_cast<double>(quantile(all, 0.50)), "cyc", note});
  std::snprintf(note, sizeof note, "n=%zu, %zu beyond%s", all.size(), beyond,
                beyond < 10 ? " (FEWER THAN 10)" : "");
  out.push_back({std::string(prefix) + "_p99_cyc", static_cast<double>(p99),
                 "cyc", note});
}

/// The modelled end-to-end metrics; run.py adds the host-time ones.
std::vector<Metric> end_to_end(const Rep& r) {
  std::vector<Metric> out;
  out.push_back({"vtput_mops",
                 ratio(static_cast<double>(total_ops(r)) * g_costs.ghz * 1e3,
                       static_cast<double>(r.phase.final_time)),
                 "Mops/s", "committed sections per virtual second"});
  add_latency(out, "read", r.phase.loop.logs, kRead);
  add_latency(out, "write", r.phase.loop.logs, kWrite);
  return out;
}

/// Sums over the op spans of one kind and their attempt spans.
struct SpanTotals {
  std::uint64_t ops = 0, self = 0, wasted = 0, attempts = 0;
  std::vector<std::uint64_t> body;  ///< committed-attempt cycles
};

double p50(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  return static_cast<double>(quantile(v, 0.5));
}

/// The per-layer metrics of a traced repetition that need no host time;
/// run.py adds sim.host_ns_per_switch, setup.* and trace.overhead_pct.
std::vector<Metric> per_layer(const Rep& r, bool is_tpcc) {
  SpanTotals by_kind[2];
  std::vector<std::vector<std::uint64_t>> by_type(Tpcc::type_names().size());
  for (const ThreadLog& log : r.phase.loop.logs) {
    // Attempts follow their op span; the last one is the committed attempt.
    for (std::size_t i = 0; i < log.spans.size();) {
      const Span& op = log.spans[i];
      std::size_t j = i + 1;
      std::uint64_t inside = 0, last = 0;
      for (; j < log.spans.size() && log.spans[j].parent == i; ++j) {
        last = log.spans[j].end - log.spans[j].start;
        inside += last;
      }
      SpanTotals& t = by_kind[op.kind];
      ++t.ops;
      t.attempts += j - i - 1;
      t.self += (op.end - op.start) - inside;
      t.wasted += inside - last;
      t.body.push_back(last);
      if (is_tpcc) by_type[op.type].push_back(last);
      i = j;
    }
  }
  const std::uint64_t ops = by_kind[kRead].ops + by_kind[kWrite].ops;
  const std::uint64_t writes = by_kind[kWrite].ops;
  const LockLayer& l = r.lock;
  const htm::EngineStats& e = r.engine;
  const sim::SimStats& s = r.phase.sim;
  std::vector<Metric> out;
  const char* kind_names[2] = {"read", "write"};
  for (int k = 0; k < 2; ++k) {
    const SpanTotals& t = by_kind[k];
    const std::string p = std::string("core.") + kind_names[k];
    const locks::OpModeCounts& m = k == kRead ? l.stats.reads : l.stats.writes;
    char note[48];
    std::snprintf(note, sizeof note, "mean of %" PRIu64 " calls", t.ops);
    out.push_back({p + ".self_cyc", ratio(t.self, t.ops), "cyc", note});
    out.push_back({p + ".wasted_cyc", ratio(t.wasted, t.ops), "cyc", "aborted attempts"});
    out.push_back({p + ".attempts_per_op", ratio(t.attempts, t.ops), "count", ""});
    out.push_back({p + ".htm_pct", 100 * ratio(m.htm, m.total()), "%", ""});
    out.push_back({p + ".unins_pct", 100 * ratio(m.unins, m.total()), "%", ""});
    out.push_back({p + ".gl_pct", 100 * ratio(m.gl, m.total()), "%", ""});
  }
  out.push_back({"core.write.reader_aborts_per_op", ratio(l.reader_aborts, writes),
                 "count", ""});
  out.push_back({"core.write.fallbacks_per_kop",
                 1e3 * ratio(l.stats.escalations.fallbacks(), writes), "count", ""});
  out.push_back({"core.scan_cyc", ratio(l.scan_cycles, l.scan_count), "cyc",
                 "per completed commit scan"});

  auto bravo = [&](double v) {
    return l.bravo ? std::optional<double>(v) : std::nullopt;
  };
  out.push_back({"core.bravo.bias_read_pct",
                 bravo(100 * ratio(l.bias_reads, by_kind[kRead].ops)), "%", ""});
  out.push_back({"core.bravo.revocations_per_kop",
                 bravo(1e3 * ratio(l.revocations, ops)), "count", ""});
  out.push_back({"core.bravo.revoke_cyc",
                 bravo(ratio(l.revoke_cycles, l.revocations)), "cyc",
                 "per revocation"});

  const std::uint64_t attempts = e.commits_htm + e.commits_rot + e.total_aborts();
  out.push_back({"htm.abort_pct", 100 * ratio(e.total_aborts(), attempts), "%", ""});
  out.push_back({"htm.aborts_conflict_per_op", ratio(e.aborts_conflict, ops), "count", ""});
  out.push_back({"htm.aborts_capacity_per_op", ratio(e.aborts_capacity, ops), "count", ""});
  out.push_back({"htm.aborts_explicit_per_op", ratio(e.aborts_explicit, ops), "count", ""});
  out.push_back({"htm.commit_line_retries_per_kop",
                 1e3 * ratio(e.commit_line_retries, ops), "count", ""});
  out.push_back({"htm.publish_drains_per_kop", 1e3 * ratio(e.publish_drains, ops),
                 "count", ""});
  out.push_back({"htm.cross_transfers_per_op", ratio(e.cross_transfers, ops),
                 "count", ""});

  out.push_back({"sim.switches_per_op", ratio(s.switches, ops), "count", ""});
  out.push_back({"sim.direct_switch_pct", 100 * ratio(s.direct_switches, s.switches),
                 "%", ""});
  out.push_back({"sim.heap_ops_per_op", ratio(s.heap_pushes + s.heap_pops, ops),
                 "count", ""});

  out.push_back({"body.read_cyc_p50", p50(by_kind[kRead].body), "cyc", "committed attempt"});
  out.push_back({"body.write_cyc_p50", p50(by_kind[kWrite].body), "cyc", "committed attempt"});
  const std::vector<std::string> tpcc_types = Tpcc::type_names();
  for (std::size_t t = 0; t < tpcc_types.size(); ++t) {
    out.push_back({"body." + tpcc_types[t] + "_cyc_p50",
                   is_tpcc ? std::optional<double>(p50(by_type[t])) : std::nullopt,
                   "cyc", ""});
  }
  return out;
}

/// Per simulated thread: the cycles inside lock calls (summed over the op
/// spans) plus the private work between calls must equal the thread's
/// measured virtual span exactly.
bool cycle_accounting_ok(const Rep& r, std::string& detail) {
  bool ok = true;
  std::uint64_t worst = 0;
  for (const ThreadLog& log : r.phase.loop.logs) {
    std::uint64_t calls = 0;
    for (const Span& s : log.spans) {
      if (s.parent == kNoParent) calls += s.end - s.start;
    }
    const std::uint64_t accounted = calls + log.ops * g_costs.local_work;
    const std::uint64_t span = log.end - log.start;
    if (calls != log.inside || accounted != span) {
      ok = false;
      worst = std::max(worst, accounted > span ? accounted - span : span - accounted);
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu threads, largest mismatch %" PRIu64 " cycles",
                r.phase.loop.logs.size(), worst);
  detail = buf;
  return ok;
}

/// Writes a traced phase as Chrome trace-event JSON (Perfetto and
/// about:tracing open it): one track per simulated thread, timestamps and
/// durations in virtual cycles. Only spans that start before a virtual-time
/// cutoff are written, chosen so at most `max_events` spans appear; the
/// file records the cutoff. Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::string& title,
                        const std::vector<ThreadLog>& logs,
                        const std::vector<std::string>& type_names,
                        std::size_t max_events) {
  std::vector<std::uint64_t> starts;
  for (const ThreadLog& log : logs) {
    for (const Span& s : log.spans) starts.push_back(s.start);
  }
  std::uint64_t cutoff = ~std::uint64_t{0};
  if (starts.size() > max_events) {
    std::nth_element(starts.begin(),
                     starts.begin() + static_cast<std::ptrdiff_t>(max_events),
                     starts.end());
    cutoff = starts[max_events];
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"title\": \"%s\", "
               "\"time_unit\": \"virtual cycles at 2 GHz (ts and dur)\", "
               "\"cutoff_cycles\": %" PRIu64 "}, \"traceEvents\": [\n",
               title.c_str(), cutoff);
  std::fprintf(f,
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
               "\"args\": {\"name\": \"%s\"}}",
               title.c_str());
  for (std::size_t t = 0; t < logs.size(); ++t) {
    std::fprintf(f,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %zu, \"args\": {\"name\": \"sim thread %zu\"}}",
                 t, t);
    const std::vector<Span>& spans = logs[t].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.start >= cutoff) continue;
      const bool op = s.parent == kNoParent;
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %" PRIu64 ", \"dur\": %" PRIu64
                   ", \"pid\": 0, \"tid\": %zu, \"args\": {\"kind\": \"%s\"",
                   op ? type_names[s.type].c_str() : "body",
                   op ? "lock call" : "body attempt", s.start, s.end - s.start,
                   t, s.kind == kRead ? "read" : "write");
      if (!op) {
        const bool last =
            i + 1 == spans.size() || spans[i + 1].parent != s.parent;
        std::fprintf(f, ", \"committed\": %s", last ? "true" : "false");
      }
      std::fprintf(f, "}}");
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- output ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool measure = true;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "hashmap-long-readers|tpcc|zipf-locktable-2s --seed <n> "
               "--trace <0|1> [--trace-dir <dir>] [--setup-only]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-only") {
      o.measure = false;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else {
      usage("unknown option " + a);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

template <class W>
int run(const Options& o) {
  std::printf("perfbench %s seed=%" PRIu64 " %s threads=%d ops=%" PRIu64
              " (+%" PRIu64 " warmup)\n",
              W::kName, o.seed,
              !o.measure ? "setup-only" : o.trace ? "traced" : "untraced",
              kThreads, W::kMeasureOps, W::kWarmupOps);
  const Rep r = run_rep<W>(o.seed, o.measure, o.trace);
  std::printf("  setup %.3f s (populate %.3f s, warmup %.3f s)\n", r.setup_s,
              r.populate_s, r.warmup_s);
  std::string json = "{\"workload\": " + json_string(W::kName) +
                     ", \"seed\": " + std::to_string(o.seed) +
                     ", \"traced\": " + (o.trace ? "true" : "false");
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ", \"populate_s\": %.17g, \"warmup_s\": %.17g, \"setup_s\": %.17g",
                r.populate_s, r.warmup_s, r.setup_s);
  json += buf;
  if (!o.measure) {
    std::snprintf(buf, sizeof buf, ", \"peak_rss_mb\": %.17g}", peak_rss_mb());
    std::printf("%s%s\n", json.c_str(), buf);
    return 0;
  }

  bool correct = r.checks.ok();
  std::printf("  measured %.3f s, %" PRIu64 " switches, digest %s\nchecks:\n",
              r.phase.host_s, r.phase.sim.switches, r.digest.c_str());
  for (const auto& [name, ok] : r.checks.items) {
    std::printf("  %-48s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = end_to_end(r);
  } else {
    std::string detail;
    const bool accounting = cycle_accounting_ok(r, detail);
    std::printf("  %-48s %s (%s)\n", "cycle accounting: calls + between == span",
                accounting ? "ok" : "FAILED", detail.c_str());
    correct = correct && accounting;
    metrics = per_layer(r, std::string(W::kName) == Tpcc::kName);
    const std::string path = o.trace_dir + "/" + W::kName + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    const bool wrote = write_chrome_trace(path, std::string("perfbench ") + W::kName,
                                          r.phase.loop.logs, W::type_names(),
                                          200'000);
    std::printf("  %-48s %s\n", ("chrome trace " + path).c_str(),
                wrote ? "written" : "FAILED");
    correct = correct && wrote;
  }

  const std::uint64_t attempted = total_ops(r);
  const std::uint64_t failed = r.checks.ok() ? r.op_failures : attempted;
  std::snprintf(buf, sizeof buf,
                ", \"peak_rss_mb\": %.17g, \"host_s\": %.17g, \"switches\": %" PRIu64
                ", \"digest\": \"%s\", \"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                peak_rss_mb(), r.phase.host_s, r.phase.sim.switches,
                r.digest.c_str(), correct ? "true" : "false", attempted, failed);
  json += buf;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (m.value) {
      std::snprintf(buf, sizeof buf, "%.17g", *m.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    json += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " + buf +
            ", \"unit\": " + json_string(m.unit) + ", \"note\": " +
            json_string(m.note) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Allocations of 128 KiB and up always come from mmap, never from the
  // heap, so the large span buffers of a traced run leave the heap layout —
  // and with it the cache-line geometry of lazily allocated lock state —
  // exactly as in an untraced run. (Without this, glibc raises the
  // threshold after the first large free.)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options o = parse(argc, argv);
  try {
    if (o.workload == HashmapLongReaders::kName) return run<HashmapLongReaders>(o);
    if (o.workload == Tpcc::kName) return run<Tpcc>(o);
    if (o.workload == ZipfLockTable2s::kName) return run<ZipfLockTable2s>(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  usage("unknown workload " + o.workload);
}
